package opt

import (
	"testing"

	"confllvm/internal/ir"
	"confllvm/internal/types"
)

var i32 = types.MakeInt(4, true, types.Public)

// loopIR builds f(n, a) around a counted loop:
//
//	b0: i = 0; acc = 0; [pre]  br b1
//	b1: [head] c = i < n; condbr c, b2, b3
//	b2: [body] t = i + 1; i = copy t; br b1
//	b3: ret acc
//
// Tests fill the bracketed places, or replace b2's branch to add blocks.
type loopIR struct {
	f          *ir.Func
	b          []*ir.Block
	n, a, i    ir.Value
	acc, one   ir.Value
	pre, head  []*ir.Inst
	body, exit []*ir.Inst
	latch      *ir.Block // the block that steps i and branches back
}

func newLoopIR() *loopIR {
	l := &loopIR{f: &ir.Func{Name: "t", Sig: &types.FuncSig{Params: []*types.Type{i64, i64}, Ret: i64}}}
	l.n, l.a = l.v(), l.v()
	l.f.ParamRegs = []ir.Value{l.n, l.a}
	l.i, l.acc, l.one = l.v(), l.v(), l.v()
	for range 4 {
		l.b = append(l.b, l.f.NewBlock())
	}
	l.latch = l.b[2]
	return l
}

func (l *loopIR) v() ir.Value { return l.f.NewValue(i64) }

func op(o ir.Op, res ir.Value, args ...ir.Value) *ir.Inst {
	return &ir.Inst{Op: o, Res: res, Args: args}
}

func konst(res ir.Value, imm int64) *ir.Inst {
	return &ir.Inst{Op: ir.OpConst, Res: res, Imm: imm, Ty: i64}
}

func br(to int) *ir.Inst { return &ir.Inst{Op: ir.OpBr, Res: ir.NoValue, Blk: to} }

// accumulate returns acc = acc + x.
func (l *loopIR) accumulate(x ir.Value) []*ir.Inst {
	t := l.v()
	return []*ir.Inst{op(ir.OpAdd, t, l.acc, x), op(ir.OpCopy, l.acc, t)}
}

// run assembles the function and runs the loop passes alone.
func (l *loopIR) run() {
	c, t := l.v(), l.v()
	l.b[0].Insts = append(append([]*ir.Inst{konst(l.i, 0), konst(l.acc, 0)}, l.pre...), br(1))
	l.b[1].Insts = append(l.head, op(ir.OpICmp, c, l.i, l.n),
		&ir.Inst{Op: ir.OpCondBr, Res: ir.NoValue, Args: []ir.Value{c}, Blk: 2, Blk2: 3})
	step := []*ir.Inst{konst(l.one, 1), op(ir.OpAdd, t, l.i, l.one), op(ir.OpCopy, l.i, t), br(1)}
	if l.latch == l.b[2] {
		l.b[2].Insts = append(l.body, step...)
	} else {
		l.b[2].Insts = l.body
		l.latch.Insts = append(l.latch.Insts, step...)
	}
	l.b[3].Insts = append(l.exit, &ir.Inst{Op: ir.OpRet, Res: ir.NoValue, Args: []ir.Value{l.acc}})
	runOne(l.f, Passes{loops: true, dce: true})
}

// blockOf returns the id of the block holding in, or -1.
func blockOf(f *ir.Func, in *ir.Inst) int {
	for _, b := range f.Blocks {
		for _, x := range b.Insts {
			if x == in {
				return b.ID
			}
		}
	}
	return -1
}

// TestLICMHoists: a multiply of two parameters, and a subtract of a
// constant defined in the loop, move to the preheader; the constant is
// cloned there and stays in the loop too.
func TestLICMHoists(t *testing.T) {
	l := newLoopIR()
	x, k, y := l.v(), l.v(), l.v()
	mul, sub := op(ir.OpMul, x, l.a, l.n), op(ir.OpSub, y, l.n, k)
	l.body = append(append([]*ir.Inst{mul, konst(k, 1), sub}, l.accumulate(x)...), l.accumulate(y)...)
	l.run()
	if blockOf(l.f, mul) != 0 || blockOf(l.f, sub) != 0 {
		t.Fatalf("invariants not hoisted to the preheader:\n%s", l.f)
	}
	if sub.Args[1] == k {
		t.Errorf("the hoisted subtract reads the loop's constant, not a clone:\n%s", l.f)
	}
	for _, in := range l.f.Blocks[0].Insts {
		if in.Res == sub.Args[1] && (in.Op != ir.OpConst || in.Imm != 1) {
			t.Errorf("the clone is %v, want const 1:\n%s", in, l.f)
		}
	}
}

// TestLICMKeeps pins each legality condition: the candidate, a multiply
// of two parameters unless it says otherwise, stays in the loop's latch.
func TestLICMKeeps(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(l *loopIR) *ir.Inst
	}{
		{"two defs in the loop", func(l *loopIR) *ir.Inst {
			x := l.v()
			mul := op(ir.OpMul, x, l.a, l.n)
			l.body = append([]*ir.Inst{mul, op(ir.OpAdd, x, x, l.a)}, l.accumulate(x)...)
			return mul
		}},
		{"live into the header", func(l *loopIR) *ir.Inst {
			// The header reads x: the first iteration sees 7, the others
			// the product.
			x := l.v()
			mul := op(ir.OpMul, x, l.a, l.n)
			l.pre = []*ir.Inst{konst(x, 7)}
			l.head = l.accumulate(x)
			l.body = []*ir.Inst{mul}
			return mul
		}},
		{"live at an exit the def does not dominate", func(l *loopIR) *ir.Inst {
			// b2 leaves the loop for b4, which returns x, before the
			// latch b5 computes it: a zero-trip or first-iteration exit
			// must return 7.
			x, d := l.v(), l.v()
			b4, b5 := l.f.NewBlock(), l.f.NewBlock()
			mul := op(ir.OpMul, x, l.a, l.n)
			l.pre = []*ir.Inst{konst(x, 7)}
			l.body = []*ir.Inst{op(ir.OpICmp, d, l.i, l.a),
				{Op: ir.OpCondBr, Res: ir.NoValue, Args: []ir.Value{d}, Blk: b4.ID, Blk2: b5.ID}}
			b4.Insts = []*ir.Inst{{Op: ir.OpRet, Res: ir.NoValue, Args: []ir.Value{x}}}
			b5.Insts = []*ir.Inst{mul}
			l.latch = b5
			return mul
		}},
		{"may fault", func(l *loopIR) *ir.Inst {
			x := l.v()
			div := &ir.Inst{Op: ir.OpDiv, Res: x, Args: []ir.Value{l.a, l.n}, Ty: i64}
			l.body = append([]*ir.Inst{div}, l.accumulate(x)...)
			return div
		}},
		{"a loop that calls", func(l *loopIR) *ir.Inst {
			x := l.v()
			mul := op(ir.OpMul, x, l.a, l.n)
			l.body = append([]*ir.Inst{mul, {Op: ir.OpCall, Res: ir.NoValue, Callee: "f"}}, l.accumulate(x)...)
			return mul
		}},
		{"a scaled index whose add stays", func(l *loopIR) *ir.Inst {
			// a << 3 feeds only i + (a << 3), a load address that prepass
			// folds into [i + a*8].
			x, k, p, v := l.v(), l.v(), l.v(), l.v()
			shl := op(ir.OpShl, x, l.a, k)
			l.body = append([]*ir.Inst{konst(k, 3), shl, op(ir.OpAdd, p, l.i, x),
				{Op: ir.OpLoad, Res: v, Args: []ir.Value{p}, Ty: i64}}, l.accumulate(v)...)
			return shl
		}},
	} {
		l := newLoopIR()
		in := tc.build(l)
		l.run()
		if got, home := blockOf(l.f, in), l.latch.ID; got != home {
			t.Errorf("%s: moved from b%d to b%d:\n%s", tc.name, home, got, l.f)
		}
	}
}

// TestStrengthReduce: i*a becomes a new value stepped by a beside i's
// update, and i*8 + a (read as a value, not an address) one stepped by
// 8. No multiply by i is left in the loop.
func TestStrengthReduce(t *testing.T) {
	l := newLoopIR()
	p, q, k, r := l.v(), l.v(), l.v(), l.v()
	l.body = append(append([]*ir.Inst{op(ir.OpMul, p, l.i, l.a),
		konst(k, 8), op(ir.OpMul, q, l.i, k), op(ir.OpAdd, r, q, l.a)},
		l.accumulate(p)...), l.accumulate(r)...)
	l.run()
	steps := 0
	for _, b := range l.f.Blocks[1:] {
		for _, in := range b.Insts {
			if in.Op == ir.OpMul {
				t.Errorf("b%d keeps %v:\n%s", b.ID, in, l.f)
			}
			if in.Op == ir.OpAdd && in.Args[0] == in.Res {
				steps++
			}
		}
	}
	if steps != 2 {
		t.Errorf("%d induction steps, want 2:\n%s", steps, l.f)
	}
}

// TestStrengthReduceNarrow: an int counter that wraps through a trunc
// steps its int product with a trunc too; a long product of it is left
// alone, since the counter wraps where the product does not.
func TestStrengthReduceNarrow(t *testing.T) {
	for _, tc := range []struct {
		name    string
		product *types.Type
		reduced bool
	}{{"int product", i32, true}, {"long product", i64, false}} {
		f := &ir.Func{Name: "t", Sig: &types.FuncSig{Params: []*types.Type{i64, i64}, Ret: i64}}
		n, a := f.NewValue(i64), f.NewValue(i64)
		f.ParamRegs = []ir.Value{n, a}
		i, acc, one, c, s, u, p, t2 := f.NewValue(i32), f.NewValue(i64), f.NewValue(i32),
			f.NewValue(i64), f.NewValue(i32), f.NewValue(i32), f.NewValue(tc.product), f.NewValue(i64)
		b0, b1, b2, b3 := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
		b0.Insts = []*ir.Inst{konst(i, 0), konst(acc, 0), br(1)}
		b1.Insts = []*ir.Inst{op(ir.OpICmp, c, i, n),
			{Op: ir.OpCondBr, Res: ir.NoValue, Args: []ir.Value{c}, Blk: 2, Blk2: 3}}
		mul := op(ir.OpMul, p, i, a)
		b2.Insts = []*ir.Inst{mul, op(ir.OpAdd, t2, acc, p), op(ir.OpCopy, acc, t2),
			{Op: ir.OpConst, Res: one, Imm: 1, Ty: i32}, op(ir.OpAdd, s, i, one),
			{Op: ir.OpTrunc, Res: u, Args: []ir.Value{s}, Ty: i32}, op(ir.OpCopy, i, u), br(1)}
		b3.Insts = []*ir.Inst{{Op: ir.OpRet, Res: ir.NoValue, Args: []ir.Value{acc}}}
		runOne(f, Passes{loops: true})
		if reduced := mul.Op == ir.OpCopy; reduced != tc.reduced {
			t.Errorf("%s: reduced %v, want %v:\n%s", tc.name, reduced, tc.reduced, f)
		}
		if !tc.reduced {
			continue
		}
		truncs := 0
		for _, in := range b2.Insts {
			if in.Op == ir.OpTrunc && in.Res == mul.Args[0] && in.Ty == i32 {
				truncs++
			}
		}
		if truncs != 1 {
			t.Errorf("%s: the new value is not truncated after its step:\n%s", tc.name, f)
		}
	}
}

// TestDeadDefs: a zero every path overwrites before reading goes; one a
// read can see stays.
func TestDeadDefs(t *testing.T) {
	f := &ir.Func{Name: "t", Sig: &types.FuncSig{Params: []*types.Type{i64}, Ret: i64}}
	p := f.NewValue(i64)
	f.ParamRegs = []ir.Value{p}
	x, y, c := f.NewValue(i64), f.NewValue(i64), f.NewValue(i64)
	b0, b1, b2 := f.NewBlock(), f.NewBlock(), f.NewBlock()
	deadZero, liveZero := konst(x, 0), konst(y, 0)
	b0.Insts = []*ir.Inst{deadZero, liveZero, op(ir.OpCopy, x, p), konst(c, 3),
		op(ir.OpICmp, c, p, c), {Op: ir.OpCondBr, Res: ir.NoValue, Args: []ir.Value{c}, Blk: 1, Blk2: 2}}
	b1.Insts = []*ir.Inst{op(ir.OpCopy, y, x), br(2)}
	b2.Insts = []*ir.Inst{op(ir.OpAdd, x, x, y), {Op: ir.OpRet, Res: ir.NoValue, Args: []ir.Value{x}}}
	runOne(f, Passes{deadDefs: true})
	if blockOf(f, deadZero) >= 0 {
		t.Errorf("the overwritten zero stayed:\n%s", f)
	}
	if blockOf(f, liveZero) < 0 {
		t.Errorf("the zero the false branch reads went:\n%s", f)
	}
}
