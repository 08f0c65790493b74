package regalloc_test

import (
	"testing"

	"confllvm/internal/ir"
	"confllvm/internal/regalloc"
	"confllvm/internal/types"
)

// fuzzFunc builds an IR function from fuzz input: structured control flow
// (sequences, ifs, while and do-while loops) over integer and float
// values of either taint, with copies, bitcasts and truncs, register-
// register and register-immediate two-address ops, compares, loads and
// stores, conversions, direct and indirect calls and returns. Values are
// mutable, so a value may be defined many times, in loops, or used before
// any definition. The input is read a byte at a time; past its end every
// byte is 0.
type fuzzFunc struct {
	data    []byte
	f       *ir.Func
	private map[ir.Value]bool
	ints    []ir.Value
	floats  []ir.Value
	insts   int
}

func (g *fuzzFunc) next() int {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return int(b)
}

var fuzzLong, fuzzDouble = types.MakeInt(8, true, types.Public), types.MakeFloat(types.Public)

// value returns an existing value of the float-ness asked for, or a new
// one.
func (g *fuzzFunc) value(float bool) ir.Value {
	pool := g.ints
	if float {
		pool = g.floats
	}
	if b := g.next(); len(pool) > 0 && (b < 200 || len(pool) >= 40) {
		return pool[b%len(pool)]
	}
	return g.fresh(float)
}

// fresh returns a new value of either taint.
func (g *fuzzFunc) fresh(float bool) ir.Value {
	pool, ty := &g.ints, fuzzLong
	if float {
		pool, ty = &g.floats, fuzzDouble
	}
	v := g.f.NewValue(ty)
	*pool = append(*pool, v)
	g.private[v] = g.next()%3 == 0
	return v
}

func (g *fuzzFunc) emit(blk *ir.Block, in *ir.Inst) {
	blk.Insts = append(blk.Insts, in)
	g.insts++
}

var fuzzIntOps = []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpAnd, ir.OpXor, ir.OpShl, ir.OpSar}
var fuzzFloatOps = []ir.Op{ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv}

// straight appends straight-line instructions to blk.
func (g *fuzzFunc) straight(blk *ir.Block) {
	for n := 1 + g.next()%6; n > 0 && g.insts < 300; n-- {
		switch k := g.next() % 14; k {
		case 0:
			g.emit(blk, &ir.Inst{Op: ir.OpConst, Res: g.value(false), Imm: int64(g.next())})
		case 1:
			g.emit(blk, &ir.Inst{Op: ir.OpFConst, Res: g.value(true), FImm: float64(g.next())})
		case 2: // copy, of either float-ness
			float := g.next()%4 == 0
			g.emit(blk, &ir.Inst{Op: ir.OpCopy, Res: g.value(float), Args: []ir.Value{g.value(float)}})
		case 3:
			g.emit(blk, &ir.Inst{Op: ir.OpBitcast, Res: g.value(false), Args: []ir.Value{g.value(false)}})
		case 4:
			g.emit(blk, &ir.Inst{Op: ir.OpTrunc, Res: g.value(false), Args: []ir.Value{g.value(false)},
				Ty: types.MakeInt(4, true, types.Public)})
		case 5, 6: // register-register, the result often one of the operands
			op := fuzzIntOps[g.next()%len(fuzzIntOps)]
			a, b := g.value(false), g.value(false)
			d := g.value(false)
			switch g.next() % 4 {
			case 0:
				d = a
			case 1:
				d = b
			}
			g.emit(blk, &ir.Inst{Op: op, Res: d, Args: []ir.Value{a, b}, Ty: fuzzLong})
		case 7: // register-immediate
			op := fuzzIntOps[g.next()%len(fuzzIntOps)]
			g.emit(blk, &ir.Inst{Op: op, Res: g.value(false), Args: []ir.Value{g.value(false)},
				Imm: int64(1 + g.next()%9), Ty: fuzzLong})
		case 8:
			op := fuzzFloatOps[g.next()%len(fuzzFloatOps)]
			g.emit(blk, &ir.Inst{Op: op, Res: g.value(true), Args: []ir.Value{g.value(true), g.value(true)}})
		case 9: // a compare with a result, or one that only sets the flags
			res := ir.NoValue
			if g.next()%2 == 0 {
				res = g.value(false)
			}
			g.emit(blk, &ir.Inst{Op: ir.OpICmp, Res: res, Args: []ir.Value{g.value(false), g.value(false)}})
		case 10:
			if g.next()%2 == 0 {
				g.emit(blk, &ir.Inst{Op: ir.OpLoad, Res: g.value(false), Args: []ir.Value{g.value(false)}, Ty: fuzzLong})
			} else {
				g.emit(blk, &ir.Inst{Op: ir.OpStore, Res: ir.NoValue,
					Args: []ir.Value{g.value(false), g.value(false), g.value(false)}, Ty: fuzzLong, Blk: 8})
			}
		case 11:
			if g.next()%2 == 0 {
				g.emit(blk, &ir.Inst{Op: ir.OpIntToFP, Res: g.value(true), Args: []ir.Value{g.value(false)}})
			} else {
				g.emit(blk, &ir.Inst{Op: ir.OpFPToInt, Res: g.value(false), Args: []ir.Value{g.value(true)}})
			}
		default: // a direct or indirect call, with or without a result
			in := &ir.Inst{Op: ir.OpCall, Res: ir.NoValue, Callee: "ext"}
			if g.next()%4 == 0 {
				in.Op = ir.OpICall
				in.Args = append(in.Args, g.value(false))
			}
			for na := g.next() % 7; na > 0; na-- {
				in.Args = append(in.Args, g.value(g.next()%5 == 0))
			}
			if r := g.next() % 3; r > 0 {
				in.Res = g.value(r == 2)
			}
			g.emit(blk, in)
		}
	}
}

// region emits structured code starting in blk and returns the block
// control leaves it in.
func (g *fuzzFunc) region(blk *ir.Block, depth int) *ir.Block {
	for n := 1 + g.next()%4; n > 0 && g.insts < 300; n-- {
		k := g.next() % 6
		if depth > 4 {
			k = 0
		}
		switch k {
		case 0, 1:
			g.straight(blk)
		case 2: // if, with or without an else
			then, join := g.f.NewBlock(), g.f.NewBlock()
			els := join
			if g.next()%2 == 0 {
				els = g.f.NewBlock()
			}
			g.emit(blk, &ir.Inst{Op: ir.OpCondBr, Res: ir.NoValue, Args: []ir.Value{g.value(false)}, Blk: then.ID, Blk2: els.ID})
			g.emit(g.region(then, depth+1), &ir.Inst{Op: ir.OpBr, Res: ir.NoValue, Blk: join.ID})
			if els != join {
				g.emit(g.region(els, depth+1), &ir.Inst{Op: ir.OpBr, Res: ir.NoValue, Blk: join.ID})
			}
			blk = join
		case 3, 4: // while: the head tests, the body jumps back
			head, body, exit := g.f.NewBlock(), g.f.NewBlock(), g.f.NewBlock()
			g.emit(blk, &ir.Inst{Op: ir.OpBr, Res: ir.NoValue, Blk: head.ID})
			g.straight(head)
			g.emit(head, &ir.Inst{Op: ir.OpCondBr, Res: ir.NoValue, Args: []ir.Value{g.value(false)}, Blk: body.ID, Blk2: exit.ID})
			g.emit(g.region(body, depth+1), &ir.Inst{Op: ir.OpBr, Res: ir.NoValue, Blk: head.ID})
			blk = exit
		default: // do-while: the latch tests
			body, exit := g.f.NewBlock(), g.f.NewBlock()
			g.emit(blk, &ir.Inst{Op: ir.OpBr, Res: ir.NoValue, Blk: body.ID})
			latch := g.region(body, depth+1)
			g.emit(latch, &ir.Inst{Op: ir.OpCondBr, Res: ir.NoValue, Args: []ir.Value{g.value(false)}, Blk: body.ID, Blk2: exit.ID})
			blk = exit
		}
	}
	return blk
}

func buildFuzzFunc(data []byte) (*ir.Func, map[ir.Value]bool) {
	g := &fuzzFunc{data: data, f: &ir.Func{Name: "fuzz"}, private: map[ir.Value]bool{}}
	entry := g.f.NewBlock()
	nparams := g.next() % 7
	var sig *types.FuncSig
	if b := g.next(); b%3 > 0 {
		sig = &types.FuncSig{Variadic: b%3 == 2}
	}
	for i := 0; i < nparams; i++ {
		p := g.fresh(g.next()%5 == 0)
		g.f.ParamRegs = append(g.f.ParamRegs, p)
		if sig != nil {
			sig.Params = append(sig.Params, g.f.ValueType(p))
		}
	}
	g.f.Sig = sig
	last := g.region(entry, 0)
	ret := &ir.Inst{Op: ir.OpRet, Res: ir.NoValue}
	if g.next()%2 == 0 {
		ret.Args = []ir.Value{g.value(false)}
	}
	g.emit(last, ret)
	return g.f, g.private
}

// FuzzAllocate allocates random IR functions: Allocate must never panic,
// and check must accept every allocation.
func FuzzAllocate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 0, 2, 5, 5, 6, 7, 8, 9, 10, 12, 13})
	f.Add([]byte("\x06\x02\x00\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x03\x04\x02\x05\x03"))
	f.Add([]byte("loops and calls: \xff\xfe\x03\x04\x04\x05\x0d\x0d\x0c\x06\x06\x06\x06\x06\x06\x06\x06\x06"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fn, private := buildFuzzFunc(data)
		isPrivate := func(v ir.Value) bool { return private[v] }
		isFloat := func(v ir.Value) bool { return fn.ValueType(v).Kind == types.Float }
		res := regalloc.Allocate(fn, isPrivate, isFloat)
		if err := check(fn, res, isPrivate, isFloat); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFuzzAllocateSeeds allocates many generated functions, so a plain
// test run covers more than the seed corpus.
func TestFuzzAllocateSeeds(t *testing.T) {
	data := make([]byte, 600)
	for seed := 0; seed < 300; seed++ {
		x := uint64(seed)*0x9e3779b97f4a7c15 + 1
		for i := range data {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			data[i] = byte(x)
		}
		fn, private := buildFuzzFunc(data)
		isPrivate := func(v ir.Value) bool { return private[v] }
		isFloat := func(v ir.Value) bool { return fn.ValueType(v).Kind == types.Float }
		res := regalloc.Allocate(fn, isPrivate, isFloat)
		if err := check(fn, res, isPrivate, isFloat); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
