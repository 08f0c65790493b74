package regalloc

import (
	"sort"
	"testing"

	"confllvm/internal/asm"
	"confllvm/internal/ir"
	"confllvm/internal/types"
)

var (
	longTy   = types.MakeInt(8, true, types.Public)
	doubleTy = types.MakeFloat(types.Public)
)

func allocate(f *ir.Func, private map[ir.Value]bool) *Result {
	return Allocate(f,
		func(v ir.Value) bool { return private[v] },
		func(v ir.Value) bool { return f.ValueType(v).Kind == types.Float })
}

// consts appends n constant definitions of type ty to blk.
func consts(f *ir.Func, blk *ir.Block, ty *types.Type, n int) []ir.Value {
	var vs []ir.Value
	for i := 0; i < n; i++ {
		v := f.NewValue(ty)
		vs = append(vs, v)
		blk.Insts = append(blk.Insts, &ir.Inst{Op: ir.OpConst, Res: v, Imm: int64(i)})
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

func wantSlot(t *testing.T, res *Result, v ir.Value, private bool) {
	t.Helper()
	if l := res.Locs[v]; l.Kind != LocSlot || l.Private != private {
		t.Errorf("v%d: got %+v, want a spill slot with private=%v", v, l, private)
	}
}

// TestIntervalRegisterReuse checks interval construction through its
// observable effect: values that are live simultaneously get distinct
// registers, and a value whose interval has expired frees its register for
// the next one.
func TestIntervalRegisterReuse(t *testing.T) {
	f := &ir.Func{Name: "t"}
	blk := f.NewBlock()
	v0 := f.NewValue(longTy)
	v1 := f.NewValue(longTy)
	v2 := f.NewValue(longTy)
	v3 := f.NewValue(longTy)
	blk.Insts = []*ir.Inst{
		{Op: ir.OpConst, Res: v0, Imm: 1},
		{Op: ir.OpConst, Res: v1, Imm: 2},
		{Op: ir.OpAdd, Res: v2, Args: []ir.Value{v0, v1}}, // v0, v1 overlap
		{Op: ir.OpAdd, Res: v3, Args: []ir.Value{v2, v2}}, // v0, v1 now dead
		{Op: ir.OpRet, Res: ir.NoValue, Args: []ir.Value{v3}},
	}
	res := allocate(f, nil)

	for _, v := range []ir.Value{v0, v1, v2, v3} {
		if res.Locs[v].Kind != LocReg {
			t.Fatalf("v%d not in a register: %+v", v, res.Locs[v])
		}
	}
	if res.Locs[v0].Reg == res.Locs[v1].Reg {
		t.Errorf("v0 and v1 are live simultaneously but share %v", res.Locs[v0].Reg)
	}
	if res.Locs[v1].Reg == res.Locs[v2].Reg {
		t.Errorf("v1 and v2 overlap at the add but share %v", res.Locs[v1].Reg)
	}
	// v3 starts after v0's interval ends, so the allocator must have at
	// least reused some register; with a 12-register pool and only two
	// values live at once, nothing may spill.
	if res.PubSlots != 0 || res.PrivSlots != 0 {
		t.Errorf("unexpected spills: pub=%d priv=%d", res.PubSlots, res.PrivSlots)
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
	var vals []ir.Value
	for i := 0; i < 12; i++ {
		v := f.NewValue(longTy)
		vals = append(vals, v)
		private[v] = true
		blk.Insts = append(blk.Insts, &ir.Inst{Op: ir.OpConst, Res: v, Imm: int64(i)})
	}
	sum := f.NewValue(longTy)
	blk.Insts = append(blk.Insts, &ir.Inst{Op: ir.OpAdd, Res: sum, Args: vals})
	blk.Insts = append(blk.Insts, &ir.Inst{Op: ir.OpRet, Res: ir.NoValue, Args: []ir.Value{sum}})

	res := allocate(f, private)
	for _, v := range vals {
		loc := res.Locs[v]
		switch loc.Kind {
		case LocReg:
			if asm.IsCalleeSaved(loc.Reg) {
				t.Errorf("private v%d assigned callee-saved %v", v, loc.Reg)
			}
			if loc.Reg == ScratchA || loc.Reg == ScratchB {
				t.Errorf("v%d assigned reserved scratch %v", v, loc.Reg)
			}
		case LocSlot:
			if !loc.Private {
				t.Errorf("private v%d spilled to a public slot", v)
			}
		default:
			t.Errorf("v%d has no location", v)
		}
	}
}

// TestPrivateAcrossCallSpills checks that a private value live across a
// call is never kept in any register at all: caller-saved registers die at
// the call and callee-saved ones are forbidden, so it must live in a
// private spill slot.
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
	res := allocate(f, map[ir.Value]bool{priv: true})

	if !res.HasCall {
		t.Fatal("call not detected")
	}
	pl := res.Locs[priv]
	if pl.Kind != LocSlot {
		t.Fatalf("private value crossing a call must spill, got %+v", pl)
	}
	if !pl.Private {
		t.Error("private spill slot labeled public")
	}
	if res.PrivSlots != 1 {
		t.Errorf("PrivSlots = %d, want 1", res.PrivSlots)
	}
	// The public value may stay in a register, but only a callee-saved one
	// survives the call.
	if gl := res.Locs[pub]; gl.Kind == LocReg && !asm.IsCalleeSaved(gl.Reg) {
		t.Errorf("public value crossing the call landed in caller-saved %v", gl.Reg)
	}
}

// TestSpillSlotTaintLabeling forces both pools to overflow and checks that
// public and private values spill to disjoint, independently-numbered slot
// sequences on their respective stacks.
func TestSpillSlotTaintLabeling(t *testing.T) {
	f := &ir.Func{Name: "t"}
	blk := f.NewBlock()
	private := map[ir.Value]bool{}
	var vals []ir.Value
	// 24 values live at once, alternating taint: overflows the 5-register
	// caller-saved pool (privates) and the 12-register combined pool.
	for i := 0; i < 24; i++ {
		v := f.NewValue(longTy)
		vals = append(vals, v)
		if i%2 == 1 {
			private[v] = true
		}
		blk.Insts = append(blk.Insts, &ir.Inst{Op: ir.OpConst, Res: v, Imm: int64(i)})
	}
	sum := f.NewValue(longTy)
	blk.Insts = append(blk.Insts, &ir.Inst{Op: ir.OpAdd, Res: sum, Args: vals})
	blk.Insts = append(blk.Insts, &ir.Inst{Op: ir.OpRet, Res: ir.NoValue, Args: []ir.Value{sum}})

	res := allocate(f, private)
	seenPub := map[int]bool{}
	seenPriv := map[int]bool{}
	for _, v := range append(append([]ir.Value{}, vals...), sum) {
		loc := res.Locs[v]
		if loc.Kind != LocSlot {
			continue
		}
		if loc.Private != private[v] {
			t.Errorf("v%d spill slot taint = %v, want %v", v, loc.Private, private[v])
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
	if res.PubSlots != len(seenPub) || res.PrivSlots != len(seenPriv) {
		t.Errorf("slot counts pub=%d priv=%d, want %d/%d",
			res.PubSlots, res.PrivSlots, len(seenPub), len(seenPriv))
	}
	// Slots must be numbered densely from 0 within each stack.
	for i := 0; i < res.PubSlots; i++ {
		if !seenPub[i] {
			t.Errorf("public slot %d skipped", i)
		}
	}
	for i := 0; i < res.PrivSlots; i++ {
		if !seenPriv[i] {
			t.Errorf("private slot %d skipped", i)
		}
	}
}

// TestCalleeSavedReporting checks that UsedCalleeSaved reports exactly the
// callee-saved registers handed out.
func TestCalleeSavedReporting(t *testing.T) {
	f := &ir.Func{Name: "t"}
	blk := f.NewBlock()
	v0 := f.NewValue(longTy)
	use := f.NewValue(longTy)
	blk.Insts = []*ir.Inst{
		{Op: ir.OpConst, Res: v0, Imm: 7},
		{Op: ir.OpCall, Res: ir.NoValue, Callee: "ext"},
		{Op: ir.OpAdd, Res: use, Args: []ir.Value{v0, v0}},
		{Op: ir.OpRet, Res: ir.NoValue, Args: []ir.Value{use}},
	}
	res := allocate(f, nil)
	loc := res.Locs[v0]
	if loc.Kind != LocReg || !asm.IsCalleeSaved(loc.Reg) {
		t.Fatalf("public value across a call should get a callee-saved register, got %+v", loc)
	}
	found := false
	for _, r := range res.UsedCalleeSaved {
		if r == loc.Reg {
			found = true
		}
	}
	if !found {
		t.Errorf("%v missing from UsedCalleeSaved %v", loc.Reg, res.UsedCalleeSaved)
	}
}

// TestMoveHintTaken: a value defined by a non-call whose first operand
// dies at the definition takes the operand's register, so codegen emits
// the operation in place with no move.
func TestMoveHintTaken(t *testing.T) {
	f := &ir.Func{Name: "t"}
	blk := f.NewBlock()
	a := f.NewValue(longTy)
	b := f.NewValue(longTy)
	sum := f.NewValue(longTy)
	cp := f.NewValue(longTy)
	blk.Insts = []*ir.Inst{
		{Op: ir.OpConst, Res: a, Imm: 1},
		{Op: ir.OpConst, Res: b, Imm: 2},
		{Op: ir.OpAdd, Res: sum, Args: []ir.Value{a, b}}, // a and b die here
		{Op: ir.OpCopy, Res: cp, Args: []ir.Value{sum}},  // sum dies here
		{Op: ir.OpRet, Res: ir.NoValue, Args: []ir.Value{cp, b}},
	}
	res := allocate(f, nil)
	if res.Locs[sum] != res.Locs[a] {
		t.Errorf("add result %+v did not take its dying first operand's %+v", res.Locs[sum], res.Locs[a])
	}
	if res.Locs[cp] != res.Locs[sum] {
		t.Errorf("copy %+v did not take its dying source's %+v", res.Locs[cp], res.Locs[sum])
	}
	// b is live past the copy: no hint may hand its register out.
	if res.Locs[cp].Reg == res.Locs[b].Reg {
		t.Errorf("copy shares live b's register %v", res.Locs[b].Reg)
	}
}

// TestMoveHintRespectsPools: the hint is refused when the operand's
// register is outside the new value's pool, in both directions — a
// private result never inherits a callee-saved register, and a public
// result that crosses a call never inherits a caller-saved one.
func TestMoveHintRespectsPools(t *testing.T) {
	t.Run("private result, callee-saved operand", func(t *testing.T) {
		f := &ir.Func{Name: "t"}
		blk := f.NewBlock()
		pub := f.NewValue(longTy)
		priv := f.NewValue(longTy)
		blk.Insts = []*ir.Inst{
			{Op: ir.OpConst, Res: pub, Imm: 1},
			{Op: ir.OpCall, Res: ir.NoValue, Callee: "ext"}, // pub crosses it
			{Op: ir.OpAdd, Res: priv, Args: []ir.Value{pub, pub}},
			{Op: ir.OpRet, Res: ir.NoValue, Args: []ir.Value{priv}},
		}
		res := allocate(f, map[ir.Value]bool{priv: true})
		if l := res.Locs[pub]; l.Kind != LocReg || !asm.IsCalleeSaved(l.Reg) {
			t.Fatalf("public value across the call should be callee-saved, got %+v", l)
		}
		if l := res.Locs[priv]; l.Kind == LocReg && asm.IsCalleeSaved(l.Reg) {
			t.Errorf("private result took the hint into callee-saved %v", l.Reg)
		}
	})
	t.Run("public-across-call result, caller-saved operand", func(t *testing.T) {
		f := &ir.Func{Name: "t"}
		blk := f.NewBlock()
		tmp := f.NewValue(longTy)
		keep := f.NewValue(longTy)
		blk.Insts = []*ir.Inst{
			{Op: ir.OpConst, Res: tmp, Imm: 1},
			{Op: ir.OpAdd, Res: keep, Args: []ir.Value{tmp, tmp}}, // tmp dies here
			{Op: ir.OpCall, Res: ir.NoValue, Callee: "ext"},       // keep crosses it
			{Op: ir.OpRet, Res: ir.NoValue, Args: []ir.Value{keep}},
		}
		res := allocate(f, nil)
		if l := res.Locs[tmp]; l.Kind != LocReg || asm.IsCalleeSaved(l.Reg) {
			t.Fatalf("short-lived public value should be caller-saved, got %+v", l)
		}
		if l := res.Locs[keep]; l.Kind != LocReg || !asm.IsCalleeSaved(l.Reg) {
			t.Errorf("public value across the call took %+v, want a callee-saved register", l)
		}
	})
}

// TestMoveHintNotFromCall: a call's result never takes a hint, even when
// an argument dies at the call in a register of the result's pool (its
// value arrives in the return register, and the operands are argument
// staging).
func TestMoveHintNotFromCall(t *testing.T) {
	f := &ir.Func{Name: "t"}
	blk := f.NewBlock()
	arg := f.NewValue(longTy)
	r := f.NewValue(longTy)
	blk.Insts = []*ir.Inst{
		{Op: ir.OpConst, Res: arg, Imm: 1},
		{Op: ir.OpCall, Res: ir.NoValue, Callee: "g"},               // arg crosses it: callee-saved
		{Op: ir.OpCall, Res: r, Callee: "f", Args: []ir.Value{arg}}, // arg dies here
		{Op: ir.OpCall, Res: ir.NoValue, Callee: "g"},               // r crosses it: callee-saved
		{Op: ir.OpRet, Res: ir.NoValue, Args: []ir.Value{r}},
	}
	res := allocate(f, nil)
	al, rl := res.Locs[arg], res.Locs[r]
	if al.Kind != LocReg || !asm.IsCalleeSaved(al.Reg) || rl.Kind != LocReg || !asm.IsCalleeSaved(rl.Reg) {
		t.Fatalf("both values should be callee-saved: arg %+v, r %+v", al, rl)
	}
	if al.Reg == rl.Reg {
		t.Errorf("call result took its argument's register %v", rl.Reg)
	}
}

// TestEvictOuterForInnerLoop: when every register holds a value used only
// outside a loop, a temporary used inside the loop takes a register and
// one outer value is spilled instead. Unweighted, the temporary (3 uses
// and defs) would be cheaper than each outer value (4).
func TestEvictOuterForInnerLoop(t *testing.T) {
	f := &ir.Func{Name: "t"}
	entry, body, exit := loop(f)
	outer := consts(f, entry, longTy, len(defaultPool))
	tmp := consts(f, body, longTy, 1)[0]
	uses(body, 1, tmp)
	uses(exit, 3, outer...)
	endLoop(entry, body, exit, tmp)

	res := allocate(f, nil)
	if l := res.Locs[tmp]; l.Kind != LocReg {
		t.Errorf("loop temporary not in a register: %+v", l)
	}
	if res.PubSlots != 1 {
		t.Errorf("PubSlots = %d, want exactly one outer value evicted", res.PubSlots)
	}
}

// TestEvictRespectsPools: eviction hands over only a register of the
// arriving value's own pool. A private value never takes a callee-saved
// register from a cheaper holder, and a public value live across a call
// never takes a caller-saved one; each spills itself instead.
func TestEvictRespectsPools(t *testing.T) {
	t.Run("private current, callee-saved holders", func(t *testing.T) {
		f := &ir.Func{Name: "t"}
		entry, body, exit := loop(f)
		cheap := consts(f, entry, longTy, len(calleeSavedPool)) // cross the call
		entry.Insts = append(entry.Insts, &ir.Inst{Op: ir.OpCall, Res: ir.NoValue, Callee: "ext"})
		heavy := consts(f, entry, longTy, len(callerSavedPool))
		p := consts(f, body, longTy, 1)[0]
		uses(body, 2, heavy...)
		uses(body, 1, p)
		uses(exit, 1, append(cheap, heavy...)...)
		endLoop(entry, body, exit, heavy[0])

		res := allocate(f, map[ir.Value]bool{p: true})
		for _, v := range cheap {
			if l := res.Locs[v]; l.Kind != LocReg || !asm.IsCalleeSaved(l.Reg) {
				t.Errorf("callee-saved holder v%d lost its register: %+v", v, l)
			}
		}
		wantSlot(t, res, p, true)
	})
	t.Run("public current across a call, caller-saved holders", func(t *testing.T) {
		f := &ir.Func{Name: "t"}
		entry, body, exit := loop(f)
		heavy := consts(f, entry, longTy, len(calleeSavedPool))
		cheap := consts(f, entry, longTy, len(callerSavedPool))
		q := consts(f, entry, longTy, 1)[0]
		uses(entry, 1, cheap...) // the cheap values die before the call
		entry.Insts = append(entry.Insts, &ir.Inst{Op: ir.OpCall, Res: ir.NoValue, Callee: "ext"})
		uses(body, 4, heavy...)
		uses(body, 3, q)
		endLoop(entry, body, exit, heavy[0])

		res := allocate(f, nil)
		for _, v := range cheap {
			if l := res.Locs[v]; l.Kind != LocReg || asm.IsCalleeSaved(l.Reg) {
				t.Errorf("caller-saved holder v%d lost its register: %+v", v, l)
			}
		}
		wantSlot(t, res, q, false)
	})
}

// TestEvictedSlotTaint: an evicted value keeps its own taint in memory: a
// private one lands in a private slot and a public one in a public slot,
// whatever the taint of the value that took its register.
func TestEvictedSlotTaint(t *testing.T) {
	f := &ir.Func{Name: "t"}
	entry, body, exit := loop(f)
	priv := consts(f, entry, longTy, 1)[0] // weight 2: the first victim
	pub := consts(f, entry, longTy, 1)[0]  // weight 3: the second
	rest := consts(f, entry, longTy, len(defaultPool)-2)
	t1 := consts(f, body, longTy, 1)[0]
	t2 := consts(f, body, longTy, 1)[0]
	uses(body, 1, t1, t2)
	uses(exit, 1, priv)
	uses(exit, 2, pub)
	uses(exit, 4, rest...)
	endLoop(entry, body, exit, t1)

	res := allocate(f, map[ir.Value]bool{priv: true})
	wantSlot(t, res, priv, true)
	wantSlot(t, res, pub, false)
	if res.PrivSlots != 1 || res.PubSlots != 1 {
		t.Errorf("slots pub=%d priv=%d, want 1/1", res.PubSlots, res.PrivSlots)
	}
	for _, v := range []ir.Value{t1, t2} {
		if res.Locs[v].Kind != LocReg {
			t.Errorf("loop value v%d not in a register: %+v", v, res.Locs[v])
		}
	}
}

// TestEvictFloatOnlyFloat: a float value only ever evicts a float value,
// even when an integer value is cheaper.
func TestEvictFloatOnlyFloat(t *testing.T) {
	f := &ir.Func{Name: "t"}
	entry, body, exit := loop(f)
	ints := consts(f, entry, longTy, len(defaultPool)) // weight 2
	cheapF := consts(f, entry, doubleTy, 1)[0]         // weight 3
	floats := consts(f, entry, doubleTy, len(fregPool)-1)
	ft := consts(f, body, doubleTy, 1)[0]
	uses(body, 1, ft)
	uses(exit, 1, ints...)
	uses(exit, 2, cheapF)
	uses(exit, 4, floats...)
	endLoop(entry, body, exit, ft)

	res := allocate(f, nil)
	for _, v := range ints {
		if res.Locs[v].Kind != LocReg {
			t.Errorf("integer v%d evicted for a float: %+v", v, res.Locs[v])
		}
	}
	wantSlot(t, res, cheapF, false)
	if l := res.Locs[ft]; l.Kind != LocFReg {
		t.Errorf("loop float not in an FP register: %+v", l)
	}
}

// RefAllocate is the original map-based linear scan, kept as a test-only
// oracle for Allocate: both must return identical Results on every
// function (TestAllocateMatchesReference). Its block-ID maps and register
// maps are the slow-but-obvious form of Allocate's slices; its loop depth
// counts covering back edges position by position, and its eviction sorts
// the candidates instead of scanning for the cheapest.
func RefAllocate(f *ir.Func, isPrivate func(ir.Value) bool, isFloat func(ir.Value) bool) *Result {
	n := f.NumValues()
	res := &Result{Locs: make([]Loc, n)}

	// Linearize instructions and record positions.
	type placed struct {
		in  *ir.Inst
		pos int
	}
	var order []placed
	blockStart := map[int]int{}
	blockEnd := map[int]int{}
	pos := 0
	var callPos []int
	for _, blk := range f.Blocks {
		blockStart[blk.ID] = pos
		for _, in := range blk.Insts {
			order = append(order, placed{in, pos})
			if in.Op == ir.OpCall || in.Op == ir.OpICall {
				callPos = append(callPos, pos)
				res.HasCall = true
				na := len(in.Args)
				if in.Op == ir.OpICall {
					na--
				}
				if na > res.MaxCallArgs {
					res.MaxCallArgs = na
				}
			}
			pos++
		}
		blockEnd[blk.ID] = pos - 1
	}
	if n == 0 {
		return res
	}

	// Liveness analysis (backwards dataflow over blocks).
	words := (n + 63) / 64
	newSet := func() []uint64 { return make([]uint64, words) }
	set := func(s []uint64, v ir.Value) { s[v/64] |= 1 << (uint(v) % 64) }
	get := func(s []uint64, v ir.Value) bool { return s[v/64]&(1<<(uint(v)%64)) != 0 }

	use := map[int][]uint64{}
	def := map[int][]uint64{}
	liveIn := map[int][]uint64{}
	liveOut := map[int][]uint64{}
	for _, blk := range f.Blocks {
		u, d := newSet(), newSet()
		for _, in := range blk.Insts {
			for _, a := range in.Args {
				if a != ir.NoValue && !get(d, a) {
					set(u, a)
				}
			}
			if in.Res != ir.NoValue && !get(u, in.Res) {
				set(d, in.Res)
			}
		}
		use[blk.ID], def[blk.ID] = u, d
		liveIn[blk.ID], liveOut[blk.ID] = newSet(), newSet()
	}
	// Parameters are defined at entry.
	changed := true
	for changed {
		changed = false
		for i := len(f.Blocks) - 1; i >= 0; i-- {
			blk := f.Blocks[i]
			out := liveOut[blk.ID]
			for _, s := range blk.Succs() {
				for w := 0; w < words; w++ {
					nv := out[w] | liveIn[s][w]
					if nv != out[w] {
						out[w] = nv
						changed = true
					}
				}
			}
			in := liveIn[blk.ID]
			for w := 0; w < words; w++ {
				nv := use[blk.ID][w] | (out[w] &^ def[blk.ID][w])
				if nv != in[w] {
					in[w] = nv
					changed = true
				}
			}
		}
	}

	// Loop depth of position p: the back edges (a branch from a block to
	// one at or before it in layout order) whose range covers p.
	layoutIdx := map[int]int{}
	for i, blk := range f.Blocks {
		layoutIdx[blk.ID] = i
	}
	depthAt := func(p int) int {
		d := 0
		for i, blk := range f.Blocks {
			for _, s := range blk.Succs() {
				if layoutIdx[s] <= i && blockStart[s] <= p && p <= blockEnd[blk.ID] {
					d++
				}
			}
		}
		return min(d, maxLoopDepth)
	}
	// Spill weight: every use and def counts 8^depth.
	weight := map[ir.Value]int64{}
	cost := func(p int) int64 {
		w := int64(1)
		for i := 0; i < depthAt(p); i++ {
			w *= 8
		}
		return w
	}
	for _, pl := range order {
		for _, a := range pl.in.Args {
			if a != ir.NoValue {
				weight[a] += cost(pl.pos)
			}
		}
		if pl.in.Res != ir.NoValue {
			weight[pl.in.Res] += cost(pl.pos)
		}
	}
	for _, pv := range f.ParamRegs {
		weight[pv] += cost(0)
	}

	// Build single covering intervals.
	starts := make([]int, n)
	ends := make([]int, n)
	for i := range starts {
		starts[i] = -1
	}
	touch := func(v ir.Value, p int) {
		if starts[v] == -1 || p < starts[v] {
			starts[v] = p
		}
		if p > ends[v] {
			ends[v] = p
		}
	}
	for _, pl := range order {
		for _, a := range pl.in.Args {
			if a != ir.NoValue {
				touch(a, pl.pos)
			}
		}
		if pl.in.Res != ir.NoValue {
			touch(pl.in.Res, pl.pos)
		}
	}
	for _, blk := range f.Blocks {
		for v := ir.Value(0); int(v) < n; v++ {
			if get(liveIn[blk.ID], v) {
				touch(v, blockStart[blk.ID])
			}
			if get(liveOut[blk.ID], v) {
				touch(v, blockEnd[blk.ID])
			}
		}
	}
	for _, pv := range f.ParamRegs {
		touch(pv, 0)
	}

	var ivs []*interval
	for v := 0; v < n; v++ {
		if starts[v] == -1 {
			continue
		}
		iv := &interval{v: ir.Value(v), start: starts[v], end: ends[v],
			private: isPrivate(ir.Value(v)), isFloat: isFloat(ir.Value(v)),
			weight: weight[ir.Value(v)]}
		for _, cp := range callPos {
			if cp >= iv.start && cp < iv.end {
				iv.crossesCall = true
				break
			}
		}
		ivs = append(ivs, iv)
	}
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].start != ivs[j].start {
			return ivs[i].start < ivs[j].start
		}
		return ivs[i].end < ivs[j].end
	})

	// Linear scan with three pools.
	type active struct {
		iv  *interval
		reg asm.Reg
		fr  asm.FReg
	}
	var act []active
	freeGPR := map[asm.Reg]bool{}
	for _, r := range calleeSavedPool {
		freeGPR[r] = true
	}
	for _, r := range callerSavedPool {
		freeGPR[r] = true
	}
	freeFP := map[asm.FReg]bool{}
	for _, r := range fregPool {
		freeFP[r] = true
	}
	usedCS := map[asm.Reg]bool{}

	expire := func(p int) {
		out := act[:0]
		for _, a := range act {
			if a.iv.end < p {
				if a.iv.isFloat {
					freeFP[a.fr] = true
				} else {
					freeGPR[a.reg] = true
				}
			} else {
				out = append(out, a)
			}
		}
		act = out
	}

	// Move hint: a value defined by a non-call whose first operand's
	// interval ends at the definition takes that operand's register when
	// the register is in the value's pool.
	hint := func(iv *interval) (active, int) {
		in := order[iv.start].in
		if in.Res != iv.v || in.Op == ir.OpCall || in.Op == ir.OpICall || len(in.Args) == 0 {
			return active{}, -1
		}
		a := in.Args[0]
		if a == ir.NoValue || a == iv.v || ends[a] != iv.start {
			return active{}, -1
		}
		for i, e := range act {
			if e.iv.v == a && e.iv.isFloat == iv.isFloat {
				return e, i
			}
		}
		return active{}, -1
	}

	spill := func(iv *interval) {
		var slot int
		if iv.private {
			slot = res.PrivSlots
			res.PrivSlots++
		} else {
			slot = res.PubSlots
			res.PubSlots++
		}
		res.Locs[iv.v] = Loc{Kind: LocSlot, Slot: slot, Private: iv.private, IsFloat: iv.isFloat}
	}

	// Eviction when iv's pool has no free register: line up iv and every
	// active interval of its float-ness holding a register of its pool,
	// order them by spill weight, then by end (latest first), and spill
	// the first. Returns the index in act whose register iv takes, or -1.
	evict := func(iv *interval, pool []asm.Reg) int {
		type cand struct {
			iv  *interval
			idx int
		}
		cands := []cand{{iv, -1}}
		for i, a := range act {
			if a.iv.isFloat != iv.isFloat {
				continue
			}
			if !iv.isFloat {
				inPool := false
				for _, r := range pool {
					if r == a.reg {
						inPool = true
					}
				}
				if !inPool {
					continue
				}
			}
			cands = append(cands, cand{a.iv, i})
		}
		sort.SliceStable(cands, func(i, j int) bool {
			if cands[i].iv.weight != cands[j].iv.weight {
				return cands[i].iv.weight < cands[j].iv.weight
			}
			return cands[i].iv.end > cands[j].iv.end
		})
		spill(cands[0].iv)
		return cands[0].idx
	}

	for _, iv := range ivs {
		expire(iv.start)
		if iv.isFloat {
			if iv.crossesCall {
				spill(iv) // no callee-saved FP registers in our model
				continue
			}
			if e, i := hint(iv); i >= 0 {
				res.Locs[iv.v] = Loc{Kind: LocFReg, FReg: e.fr, Private: iv.private, IsFloat: true}
				act[i] = active{iv, 0, e.fr}
				continue
			}
			assigned := false
			for _, r := range fregPool {
				if freeFP[r] {
					freeFP[r] = false
					res.Locs[iv.v] = Loc{Kind: LocFReg, FReg: r, Private: iv.private, IsFloat: true}
					act = append(act, active{iv, 0, r})
					assigned = true
					break
				}
			}
			if !assigned {
				if i := evict(iv, nil); i >= 0 {
					fr := act[i].fr
					res.Locs[iv.v] = Loc{Kind: LocFReg, FReg: fr, Private: iv.private, IsFloat: true}
					act[i] = active{iv, 0, fr}
				}
			}
			continue
		}
		// Integer/pointer value: choose an allowed pool.
		var pool []asm.Reg
		switch {
		case iv.private && iv.crossesCall:
			pool = nil // private across a call: must be in private memory
		case iv.private:
			pool = callerSavedPool
		case iv.crossesCall:
			pool = calleeSavedPool
		default:
			// Prefer caller-saved to keep callee-saved pushes rare.
			pool = append(append([]asm.Reg{}, callerSavedPool...), calleeSavedPool...)
		}
		if e, i := hint(iv); i >= 0 {
			inPool := false
			for _, r := range pool {
				if r == e.reg {
					inPool = true
				}
			}
			if inPool {
				res.Locs[iv.v] = Loc{Kind: LocReg, Reg: e.reg, Private: iv.private}
				act[i] = active{iv, e.reg, 0}
				continue
			}
		}
		assigned := false
		for _, r := range pool {
			if freeGPR[r] {
				freeGPR[r] = false
				res.Locs[iv.v] = Loc{Kind: LocReg, Reg: r, Private: iv.private}
				if asm.IsCalleeSaved(r) {
					usedCS[r] = true
				}
				act = append(act, active{iv, r, 0})
				assigned = true
				break
			}
		}
		if !assigned {
			if i := evict(iv, pool); i >= 0 {
				r := act[i].reg
				res.Locs[iv.v] = Loc{Kind: LocReg, Reg: r, Private: iv.private}
				act[i] = active{iv, r, 0}
			}
		}
	}

	for _, r := range calleeSavedPool {
		if usedCS[r] {
			res.UsedCalleeSaved = append(res.UsedCalleeSaved, r)
		}
	}
	return res
}
