package regalloc_test

import (
	"testing"

	"confllvm/internal/asm"
	"confllvm/internal/ir"
	"confllvm/internal/regalloc"
	"confllvm/internal/types"
)

var (
	longTy   = types.MakeInt(8, true, types.Public)
	doubleTy = types.MakeFloat(types.Public)
)

// allocate runs Allocate on f, whose Sig is nil, and check on the result.
func allocate(t *testing.T, f *ir.Func, private map[ir.Value]bool) *regalloc.Result {
	t.Helper()
	isPrivate := func(v ir.Value) bool { return private[v] }
	isFloat := func(v ir.Value) bool { return f.ValueType(v).Kind == types.Float }
	res := regalloc.Allocate(f, isPrivate, isFloat)
	if err := check(f, res, isPrivate, isFloat); err != nil {
		t.Fatal(err)
	}
	return res
}

// consts appends n constant definitions of type ty to blk.
func consts(f *ir.Func, blk *ir.Block, ty *types.Type, n int) []ir.Value {
	var vs []ir.Value
	for i := 0; i < n; i++ {
		v := f.NewValue(ty)
		vs = append(vs, v)
		op := ir.OpConst
		if ty.Kind == types.Float {
			op = ir.OpFConst
		}
		blk.Insts = append(blk.Insts, &ir.Inst{Op: op, Res: v, Imm: int64(i)})
	}
	return vs
}

// uses appends one result-less instruction reading every value in vs
// times times.
func uses(blk *ir.Block, times int, vs ...ir.Value) {
	var args []ir.Value
	for i := 0; i < times; i++ {
		args = append(args, vs...)
	}
	blk.Insts = append(blk.Insts, &ir.Inst{Op: ir.OpStore, Res: ir.NoValue, Args: args})
}

// loop returns an entry block, a loop block and an exit block; the caller
// fills them, then endLoop makes the entry fall into the loop block, which
// branches back to itself on cond or on to the exit.
func loop(f *ir.Func) (entry, body, exit *ir.Block) {
	return f.NewBlock(), f.NewBlock(), f.NewBlock()
}

func endLoop(entry, body, exit *ir.Block, cond ir.Value) {
	entry.Insts = append(entry.Insts, &ir.Inst{Op: ir.OpBr, Res: ir.NoValue, Blk: body.ID})
	body.Insts = append(body.Insts, &ir.Inst{Op: ir.OpCondBr, Res: ir.NoValue,
		Args: []ir.Value{cond}, Blk: body.ID, Blk2: exit.ID})
	exit.Insts = append(exit.Insts, &ir.Inst{Op: ir.OpRet, Res: ir.NoValue})
}

func call(blk *ir.Block, res ir.Value, args ...ir.Value) {
	blk.Insts = append(blk.Insts, &ir.Inst{Op: ir.OpCall, Res: res, Callee: "ext", Args: args})
}

func wantSlot(t *testing.T, res *regalloc.Result, v ir.Value, private bool) {
	t.Helper()
	if l := res.Locs[v]; l.Kind != regalloc.LocSlot || l.Private != private {
		t.Errorf("v%d: got %+v, want a spill slot with private=%v", v, l, private)
	}
}

func wantReg(t *testing.T, res *regalloc.Result, v ir.Value, r asm.Reg) {
	t.Helper()
	if l := res.Locs[v]; l.Kind != regalloc.LocReg || l.Reg != r {
		t.Errorf("v%d: got %+v, want %v", v, l, r)
	}
}

// TestIntervalRegisterReuse: values live at the same time get distinct
// registers, and values whose lives do not overlap reuse them: with two
// values live at once, nothing spills and nothing is saved.
func TestIntervalRegisterReuse(t *testing.T) {
	f := &ir.Func{Name: "t"}
	blk := f.NewBlock()
	v0, v1, v2, v3 := f.NewValue(longTy), f.NewValue(longTy), f.NewValue(longTy), f.NewValue(longTy)
	blk.Insts = []*ir.Inst{
		{Op: ir.OpConst, Res: v0, Imm: 1},
		{Op: ir.OpConst, Res: v1, Imm: 2},
		{Op: ir.OpSub, Res: v2, Args: []ir.Value{v0, v1}}, // v0, v1 overlap
		{Op: ir.OpAdd, Res: v3, Args: []ir.Value{v2, v2}}, // v0, v1 now dead
		{Op: ir.OpRet, Res: ir.NoValue, Args: []ir.Value{v3}},
	}
	res := allocate(t, f, nil)
	for _, v := range []ir.Value{v0, v1, v2, v3} {
		if res.Locs[v].Kind != regalloc.LocReg {
			t.Fatalf("v%d not in a register: %+v", v, res.Locs[v])
		}
	}
	if res.Locs[v0].Reg == res.Locs[v1].Reg {
		t.Errorf("v0 and v1 are live simultaneously but share %v", res.Locs[v0].Reg)
	}
	if res.PubSlots != 0 || res.PrivSlots != 0 || len(res.UsedCalleeSaved) != 0 {
		t.Errorf("unexpected spills or saves: pub=%d priv=%d saved %v", res.PubSlots, res.PrivSlots, res.UsedCalleeSaved)
	}
}

// TestPrivateNeverCalleeSaved checks the core taint invariant: a private
// value must never be assigned a callee-saved register, whatever the
// register pressure (callees compiled elsewhere would spill it to the
// public stack).
func TestPrivateNeverCalleeSaved(t *testing.T) {
	f := &ir.Func{Name: "t"}
	blk := f.NewBlock()
	private := map[ir.Value]bool{}
	// 12 private values all live at once: more than the caller-saved pool,
	// so the allocator is under pressure to cheat.
	vals := consts(f, blk, longTy, 12)
	for _, v := range vals {
		private[v] = true
	}
	sum := f.NewValue(longTy)
	private[sum] = true
	blk.Insts = append(blk.Insts, &ir.Inst{Op: ir.OpAdd, Res: sum, Args: vals})
	blk.Insts = append(blk.Insts, &ir.Inst{Op: ir.OpRet, Res: ir.NoValue, Args: []ir.Value{sum}})

	res := allocate(t, f, private)
	inRegs := 0
	for _, v := range vals {
		if res.Locs[v].Kind == regalloc.LocReg {
			inRegs++
		}
	}
	if inRegs != 5 {
		t.Errorf("%d private values in registers, want the 5 caller-saved ones", inRegs)
	}
}

// TestPrivateAcrossCallSpills checks that a private value live across a
// call is never kept in any register at all: caller-saved registers die at
// the call and callee-saved ones are forbidden, so it must live in a
// private spill slot. A public one survives in a callee-saved register.
func TestPrivateAcrossCallSpills(t *testing.T) {
	f := &ir.Func{Name: "t"}
	blk := f.NewBlock()
	priv := f.NewValue(longTy)
	pub := f.NewValue(longTy)
	use := f.NewValue(longTy)
	blk.Insts = []*ir.Inst{
		{Op: ir.OpConst, Res: priv, Imm: 1},
		{Op: ir.OpConst, Res: pub, Imm: 2},
		{Op: ir.OpCall, Res: ir.NoValue, Callee: "ext"},
		{Op: ir.OpAdd, Res: use, Args: []ir.Value{priv, pub}},
		{Op: ir.OpRet, Res: ir.NoValue, Args: []ir.Value{use}},
	}
	res := allocate(t, f, map[ir.Value]bool{priv: true, use: true})
	if !res.HasCall {
		t.Fatal("call not detected")
	}
	wantSlot(t, res, priv, true)
	if res.PrivSlots != 1 || res.PubSlots != 0 {
		t.Errorf("slots pub=%d priv=%d, want 0/1", res.PubSlots, res.PrivSlots)
	}
	if gl := res.Locs[pub]; gl.Kind != regalloc.LocReg || !asm.IsCalleeSaved(gl.Reg) {
		t.Errorf("public value across the call in %+v, want a callee-saved register", gl)
	}
}

// TestSpillSlotTaintLabeling forces both pools to overflow and checks that
// public and private values spill to disjoint, independently numbered slot
// sequences on their respective stacks.
func TestSpillSlotTaintLabeling(t *testing.T) {
	f := &ir.Func{Name: "t"}
	blk := f.NewBlock()
	private := map[ir.Value]bool{}
	// 24 values live at once, alternating taint: overflows the 5-register
	// caller-saved pool (privates) and the 12-register combined pool.
	vals := consts(f, blk, longTy, 24)
	for i, v := range vals {
		if i%2 == 1 {
			private[v] = true
		}
	}
	sum := f.NewValue(longTy)
	blk.Insts = append(blk.Insts, &ir.Inst{Op: ir.OpAdd, Res: sum, Args: vals})
	blk.Insts = append(blk.Insts, &ir.Inst{Op: ir.OpRet, Res: ir.NoValue, Args: []ir.Value{sum}})

	res := allocate(t, f, private)
	seenPub := map[int]bool{}
	seenPriv := map[int]bool{}
	for _, v := range append(vals, sum) {
		loc := res.Locs[v]
		if loc.Kind != regalloc.LocSlot {
			continue
		}
		seen := seenPub
		if loc.Private {
			seen = seenPriv
		}
		if seen[loc.Slot] {
			t.Errorf("slot %d (private=%v) assigned twice", loc.Slot, loc.Private)
		}
		seen[loc.Slot] = true
	}
	if len(seenPub) == 0 || len(seenPriv) == 0 {
		t.Fatalf("expected spills in both pools: pub=%d priv=%d", len(seenPub), len(seenPriv))
	}
	// Slots are numbered densely from 0 within each stack.
	if res.PubSlots != len(seenPub) || res.PrivSlots != len(seenPriv) {
		t.Errorf("slot counts pub=%d priv=%d, want %d/%d",
			res.PubSlots, res.PrivSlots, len(seenPub), len(seenPriv))
	}
}

// TestCalleeSavedReporting checks that UsedCalleeSaved reports exactly the
// callee-saved registers handed out, and that a value live across two
// calls takes the one the function already saves.
func TestCalleeSavedReporting(t *testing.T) {
	f := &ir.Func{Name: "t"}
	blk := f.NewBlock()
	v0, v1 := f.NewValue(longTy), f.NewValue(longTy)
	use := f.NewValue(longTy)
	blk.Insts = []*ir.Inst{{Op: ir.OpConst, Res: v0, Imm: 7}}
	call(blk, ir.NoValue)
	blk.Insts = append(blk.Insts, &ir.Inst{Op: ir.OpAdd, Res: v1, Args: []ir.Value{v0, v0}})
	call(blk, ir.NoValue)
	blk.Insts = append(blk.Insts,
		&ir.Inst{Op: ir.OpAdd, Res: use, Args: []ir.Value{v1, v1}},
		&ir.Inst{Op: ir.OpRet, Res: ir.NoValue, Args: []ir.Value{use}})
	res := allocate(t, f, nil)
	l0, l1 := res.Locs[v0], res.Locs[v1]
	if l0.Kind != regalloc.LocReg || !asm.IsCalleeSaved(l0.Reg) || l1 != l0 {
		t.Fatalf("values across calls in %+v and %+v, want one callee-saved register", l0, l1)
	}
	if len(res.UsedCalleeSaved) != 1 || res.UsedCalleeSaved[0] != l0.Reg {
		t.Errorf("UsedCalleeSaved = %v, want [%v]", res.UsedCalleeSaved, l0.Reg)
	}
}

// TestMoveHintTaken: a copy and a loop-carried accumulator allocate to
// one register, so codegen emits no move: acc = acc + x in a loop, written
// t = add acc, x; acc = copy t, keeps acc and t together, and a copy
// whose source stays live shares its register too, since both hold the
// same value.
func TestMoveHintTaken(t *testing.T) {
	f := &ir.Func{Name: "t"}
	entry, body, exit := loop(f)
	acc := consts(f, entry, longTy, 1)[0]
	x := consts(f, entry, longTy, 1)[0]
	tmp := f.NewValue(longTy)
	cp := f.NewValue(longTy)
	body.Insts = append(body.Insts,
		&ir.Inst{Op: ir.OpAdd, Res: tmp, Args: []ir.Value{acc, x}},
		&ir.Inst{Op: ir.OpCopy, Res: acc, Args: []ir.Value{tmp}},
		&ir.Inst{Op: ir.OpCopy, Res: cp, Args: []ir.Value{x}})
	uses(body, 1, cp, x)
	endLoop(entry, body, exit, acc)
	exit.Insts = append(exit.Insts[:0], &ir.Inst{Op: ir.OpRet, Res: ir.NoValue, Args: []ir.Value{acc}})

	res := allocate(t, f, nil)
	if res.Locs[tmp] != res.Locs[acc] {
		t.Errorf("acc in %+v, its sum in %+v: the loop needs a move", res.Locs[acc], res.Locs[tmp])
	}
	if res.Locs[cp] != res.Locs[x] {
		t.Errorf("copy in %+v, its live source in %+v", res.Locs[cp], res.Locs[x])
	}
	// acc is returned, so the coalesced pair prefers rax.
	wantReg(t, res, acc, asm.RAX)
}

// TestTwoAddressInPlace: a two-address op whose first operand dies there
// runs in place; a commutative one may use its second operand's register
// instead; a non-commutative one never shares its second operand's.
func TestTwoAddressInPlace(t *testing.T) {
	f := &ir.Func{Name: "t"}
	blk := f.NewBlock()
	a, b, c := f.NewValue(longTy), f.NewValue(longTy), f.NewValue(longTy)
	sum, prod, diff := f.NewValue(longTy), f.NewValue(longTy), f.NewValue(longTy)
	blk.Insts = []*ir.Inst{
		{Op: ir.OpConst, Res: a, Imm: 1},
		{Op: ir.OpConst, Res: b, Imm: 2},
		{Op: ir.OpConst, Res: c, Imm: 3},
		{Op: ir.OpAdd, Res: sum, Args: []ir.Value{a, b}},     // a dies
		{Op: ir.OpMul, Res: prod, Args: []ir.Value{b, sum}},  // sum dies, b lives
		{Op: ir.OpSub, Res: diff, Args: []ir.Value{c, prod}}, // both die
	}
	uses(blk, 1, diff, b)
	blk.Insts = append(blk.Insts, &ir.Inst{Op: ir.OpRet, Res: ir.NoValue})
	res := allocate(t, f, nil)
	if res.Locs[sum] != res.Locs[a] {
		t.Errorf("add in %+v, its dying first operand in %+v", res.Locs[sum], res.Locs[a])
	}
	if res.Locs[prod] != res.Locs[sum] {
		t.Errorf("mul in %+v, its dying second operand in %+v", res.Locs[prod], res.Locs[sum])
	}
	if res.Locs[diff] != res.Locs[c] {
		t.Errorf("sub in %+v, its dying first operand in %+v", res.Locs[diff], res.Locs[c])
	}
	// check rejects diff in prod's register.
}

// TestArgumentRegisters: parameters stay in their argument registers, a
// value passed to a call is computed in the argument register it is passed
// in, and a call's result that is returned stays in rax.
func TestArgumentRegisters(t *testing.T) {
	f := &ir.Func{Name: "t"}
	blk := f.NewBlock()
	p0, p1 := f.NewValue(longTy), f.NewValue(longTy)
	f.ParamRegs = []ir.Value{p0, p1}
	arg0, arg1, r := f.NewValue(longTy), f.NewValue(longTy), f.NewValue(longTy)
	blk.Insts = []*ir.Inst{
		{Op: ir.OpAdd, Res: arg1, Args: []ir.Value{p0, p1}},
		{Op: ir.OpConst, Res: arg0, Imm: 5},
	}
	call(blk, r, arg0, arg1)
	blk.Insts = append(blk.Insts, &ir.Inst{Op: ir.OpRet, Res: ir.NoValue, Args: []ir.Value{r}})
	res := allocate(t, f, nil)
	wantReg(t, res, p0, asm.RCX)
	wantReg(t, res, p1, asm.RDX) // coalesced with arg1, which agrees
	wantReg(t, res, arg0, asm.RCX)
	wantReg(t, res, arg1, asm.RDX)
	wantReg(t, res, r, asm.RAX)

	// Without the add, each parameter keeps its own register.
	g := &ir.Func{Name: "g"}
	gb := g.NewBlock()
	q0, q1, s := g.NewValue(longTy), g.NewValue(longTy), g.NewValue(longTy)
	g.ParamRegs = []ir.Value{q0, q1}
	gb.Insts = []*ir.Inst{
		{Op: ir.OpLoad, Res: s, Args: []ir.Value{q0, q1}, Ty: longTy, Blk: 8},
		{Op: ir.OpRet, Res: ir.NoValue, Args: []ir.Value{s}},
	}
	res = allocate(t, g, nil)
	wantReg(t, res, q0, asm.RCX)
	wantReg(t, res, q1, asm.RDX)
	wantReg(t, res, s, asm.RAX)
}

// TestMoveHintRespectsPools: coalescing never carries a value into a
// register its mask forbids. A private copy of a public value live across
// a call stays out of callee-saved registers, and a public copy that
// crosses a call stays out of the caller-saved register its short-lived
// source takes.
func TestMoveHintRespectsPools(t *testing.T) {
	t.Run("private result, callee-saved operand", func(t *testing.T) {
		f := &ir.Func{Name: "t"}
		blk := f.NewBlock()
		pub := f.NewValue(longTy)
		priv := f.NewValue(longTy)
		blk.Insts = []*ir.Inst{{Op: ir.OpConst, Res: pub, Imm: 1}}
		call(blk, ir.NoValue) // pub crosses it
		blk.Insts = append(blk.Insts,
			&ir.Inst{Op: ir.OpCopy, Res: priv, Args: []ir.Value{pub}},
			&ir.Inst{Op: ir.OpRet, Res: ir.NoValue, Args: []ir.Value{priv, pub}})
		res := allocate(t, f, map[ir.Value]bool{priv: true})
		if l := res.Locs[pub]; l.Kind != regalloc.LocReg || !asm.IsCalleeSaved(l.Reg) {
			t.Fatalf("public value across the call in %+v, want a callee-saved register", l)
		}
		if l := res.Locs[priv]; l.Kind != regalloc.LocReg || asm.IsCalleeSaved(l.Reg) {
			t.Errorf("private copy in %+v, want a caller-saved register", l)
		}
	})
	t.Run("public-across-call result, caller-saved operand", func(t *testing.T) {
		f := &ir.Func{Name: "t"}
		blk := f.NewBlock()
		tmp := f.NewValue(longTy)
		keep := f.NewValue(longTy)
		other := f.NewValue(longTy)
		blk.Insts = []*ir.Inst{
			{Op: ir.OpConst, Res: tmp, Imm: 1},
			{Op: ir.OpCopy, Res: keep, Args: []ir.Value{tmp}},
			{Op: ir.OpAdd, Res: other, Args: []ir.Value{tmp, tmp}}, // tmp dies here
		}
		call(blk, ir.NoValue, other) // keep crosses it
		blk.Insts = append(blk.Insts, &ir.Inst{Op: ir.OpRet, Res: ir.NoValue, Args: []ir.Value{keep}})
		res := allocate(t, f, nil)
		if l := res.Locs[tmp]; l.Kind != regalloc.LocReg || asm.IsCalleeSaved(l.Reg) {
			t.Errorf("short-lived value in %+v, want a caller-saved register", l)
		}
		if l := res.Locs[keep]; l.Kind != regalloc.LocReg || !asm.IsCalleeSaved(l.Reg) {
			t.Errorf("public value across the call in %+v, want a callee-saved register", l)
		}
		wantReg(t, res, other, asm.RCX)
	})
}

// TestEvictOuterForInnerLoop: when every register holds a value used
// only outside a loop, a temporary used inside the loop keeps a register
// and one outer value is spilled instead; each use in the loop counts 8
// times one outside it.
func TestEvictOuterForInnerLoop(t *testing.T) {
	f := &ir.Func{Name: "t"}
	entry, body, exit := loop(f)
	outer := consts(f, entry, longTy, 12)
	tmp := consts(f, body, longTy, 1)[0]
	uses(body, 1, tmp)
	uses(exit, 3, outer...)
	endLoop(entry, body, exit, tmp)

	res := allocate(t, f, nil)
	if l := res.Locs[tmp]; l.Kind != regalloc.LocReg {
		t.Errorf("loop temporary not in a register: %+v", l)
	}
	if res.PubSlots != 1 {
		t.Errorf("PubSlots = %d, want exactly one outer value spilled", res.PubSlots)
	}
}

// TestShortRangeNotSpilled: a value used only by the instruction after its
// definition costs infinitely to spill, however cheap its uses; under
// pressure a long-lived value spills instead.
func TestShortRangeNotSpilled(t *testing.T) {
	f := &ir.Func{Name: "t"}
	blk := f.NewBlock()
	long := consts(f, blk, longTy, 12)
	short := consts(f, blk, longTy, 1)[0]
	uses(blk, 1, short)
	uses(blk, 1, long...)
	blk.Insts = append(blk.Insts, &ir.Inst{Op: ir.OpRet, Res: ir.NoValue})
	res := allocate(t, f, nil)
	if l := res.Locs[short]; l.Kind != regalloc.LocReg {
		t.Errorf("short range spilled: %+v", l)
	}
	if res.PubSlots != 1 {
		t.Errorf("PubSlots = %d, want one long value spilled", res.PubSlots)
	}
}

// TestEvictFloatOnlyFloat: float and integer values use separate
// register files, so float pressure spills a float even when an integer
// is cheaper; a float live across a call always spills, to its own
// taint's stack.
func TestEvictFloatOnlyFloat(t *testing.T) {
	f := &ir.Func{Name: "t"}
	entry, body, exit := loop(f)
	ints := consts(f, entry, longTy, 12)
	floats := consts(f, entry, doubleTy, 15)
	ft := consts(f, body, doubleTy, 1)[0]
	uses(body, 1, ft)
	uses(exit, 1, ints...)
	uses(exit, 2, floats...)
	endLoop(entry, body, exit, ints[0])
	across := consts(f, exit, doubleTy, 1)[0]
	exit.Insts = exit.Insts[:len(exit.Insts)-2]
	exit.Insts = append(exit.Insts, &ir.Inst{Op: ir.OpFConst, Res: across})
	call(exit, ir.NoValue)
	uses(exit, 1, across)
	exit.Insts = append(exit.Insts, &ir.Inst{Op: ir.OpRet, Res: ir.NoValue})

	res := allocate(t, f, map[ir.Value]bool{across: true})
	for _, v := range ints {
		if res.Locs[v].Kind != regalloc.LocReg {
			t.Errorf("integer v%d spilled for floats: %+v", v, res.Locs[v])
		}
	}
	if l := res.Locs[ft]; l.Kind != regalloc.LocFReg {
		t.Errorf("loop float not in an FP register: %+v", l)
	}
	wantSlot(t, res, across, true)
	if res.PubSlots != 2 {
		t.Errorf("PubSlots = %d, want the 2 floats beyond the 14 FP registers", res.PubSlots)
	}
}

// TestMoveHintNotFromCall: a call's result is never merged with an
// argument that dies at the call: the result prefers rax and the argument
// the register it is passed in, so neither needs a move.
func TestMoveHintNotFromCall(t *testing.T) {
	f := &ir.Func{Name: "t"}
	blk := f.NewBlock()
	arg, r := f.NewValue(longTy), f.NewValue(longTy)
	blk.Insts = []*ir.Inst{{Op: ir.OpConst, Res: arg, Imm: 1}}
	call(blk, r, arg) // arg dies here
	blk.Insts = append(blk.Insts, &ir.Inst{Op: ir.OpRet, Res: ir.NoValue, Args: []ir.Value{r}})
	res := allocate(t, f, nil)
	wantReg(t, res, arg, asm.RCX)
	wantReg(t, res, r, asm.RAX)
}

// TestEvictRespectsPools: spill choice never trades a register mask for
// a register. A private value under pressure gets a caller-saved register
// or a private slot, never the callee-saved register of a cheaper value;
// a public value live across a call gets a callee-saved register or a
// slot, never the caller-saved register of a cheaper value that dies
// before the call.
func TestEvictRespectsPools(t *testing.T) {
	t.Run("private current, callee-saved holders", func(t *testing.T) {
		f := &ir.Func{Name: "t"}
		entry, body, exit := loop(f)
		cheap := consts(f, entry, longTy, 7) // cross the call
		call(entry, ir.NoValue)
		heavy := consts(f, entry, longTy, 5)
		p := consts(f, body, longTy, 1)[0]
		uses(body, 2, heavy...)
		uses(body, 1, p)
		uses(exit, 1, append(cheap, heavy...)...)
		endLoop(entry, body, exit, heavy[0])

		res := allocate(t, f, map[ir.Value]bool{p: true})
		for _, v := range cheap {
			if l := res.Locs[v]; l.Kind == regalloc.LocReg && !asm.IsCalleeSaved(l.Reg) {
				t.Errorf("value across the call v%d in %+v", v, l)
			}
		}
		if l := res.Locs[p]; l.Kind == regalloc.LocSlot && !l.Private || l.Kind == regalloc.LocReg && asm.IsCalleeSaved(l.Reg) {
			t.Errorf("private value in %+v", l)
		}
	})
	t.Run("public current across a call, caller-saved holders", func(t *testing.T) {
		f := &ir.Func{Name: "t"}
		entry, body, exit := loop(f)
		heavy := consts(f, entry, longTy, 7)
		cheap := consts(f, entry, longTy, 5)
		q := consts(f, entry, longTy, 1)[0]
		uses(entry, 1, cheap...) // the cheap values die before the call
		call(entry, ir.NoValue)
		uses(body, 4, heavy...)
		uses(body, 3, q)
		endLoop(entry, body, exit, heavy[0])

		res := allocate(t, f, nil)
		for _, v := range cheap {
			if l := res.Locs[v]; l.Kind != regalloc.LocReg || asm.IsCalleeSaved(l.Reg) {
				t.Errorf("short-lived v%d in %+v, want a caller-saved register", v, l)
			}
		}
		wantSlot(t, res, q, false)
	})
}

// TestEvictedSlotTaint: a spilled value keeps its own taint in memory: a
// private one lands in a private slot and a public one in a public slot,
// whatever the taint of the values that keep registers.
func TestEvictedSlotTaint(t *testing.T) {
	f := &ir.Func{Name: "t"}
	entry, body, exit := loop(f)
	priv := consts(f, entry, longTy, 1)[0] // cost 2: the first spilled
	pub := consts(f, entry, longTy, 1)[0]  // cost 3: the second
	rest := consts(f, entry, longTy, 10)
	t1 := consts(f, body, longTy, 1)[0]
	t2 := consts(f, body, longTy, 1)[0]
	uses(body, 1, t1, t2)
	uses(exit, 1, priv)
	uses(exit, 2, pub)
	uses(exit, 4, rest...)
	endLoop(entry, body, exit, t1)

	res := allocate(t, f, map[ir.Value]bool{priv: true})
	wantSlot(t, res, priv, true)
	wantSlot(t, res, pub, false)
	if res.PrivSlots != 1 || res.PubSlots != 1 {
		t.Errorf("slots pub=%d priv=%d, want 1/1", res.PubSlots, res.PrivSlots)
	}
	for _, v := range []ir.Value{t1, t2} {
		if res.Locs[v].Kind != regalloc.LocReg {
			t.Errorf("loop value v%d not in a register: %+v", v, res.Locs[v])
		}
	}
}
