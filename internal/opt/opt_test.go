package opt

import (
	"testing"

	"confllvm/internal/ir"
	"confllvm/internal/types"
)

var i64 = types.MakeInt(8, true, types.Public)

// buildFunc makes a one-block function computing (2+3)*4 and returning it,
// with a dead extra instruction.
func buildFunc() *ir.Func {
	f := &ir.Func{Name: "t", Sig: &types.FuncSig{Ret: i64}}
	b := f.NewBlock()
	v1 := f.NewValue(i64)
	v2 := f.NewValue(i64)
	v3 := f.NewValue(i64)
	v4 := f.NewValue(i64)
	v5 := f.NewValue(i64)
	dead := f.NewValue(i64)
	b.Insts = []*ir.Inst{
		{Op: ir.OpConst, Res: v1, Imm: 2, Ty: i64},
		{Op: ir.OpConst, Res: v2, Imm: 3, Ty: i64},
		{Op: ir.OpAdd, Res: v3, Args: []ir.Value{v1, v2}},
		{Op: ir.OpConst, Res: v4, Imm: 4, Ty: i64},
		{Op: ir.OpMul, Res: v5, Args: []ir.Value{v3, v4}},
		{Op: ir.OpXor, Res: dead, Args: []ir.Value{v1, v2}}, // dead
		{Op: ir.OpRet, Res: ir.NoValue, Args: []ir.Value{v5}},
	}
	return f
}

func TestConstFoldAndDCE(t *testing.T) {
	f := buildFunc()
	mod := ir.NewModule()
	mod.AddFunc(f)
	Run(mod, O2())
	// The whole computation folds to a single constant 20 + ret.
	var retArg ir.Value = ir.NoValue
	consts := map[ir.Value]int64{}
	n := 0
	for _, in := range f.Blocks[0].Insts {
		n++
		if in.Op == ir.OpConst {
			consts[in.Res] = in.Imm
		}
		if in.Op == ir.OpRet {
			retArg = in.Args[0]
		}
	}
	if consts[retArg] != 20 {
		t.Errorf("did not fold to 20: %v", f)
	}
	if n > 3 { // at most: const 20, maybe one leftover, ret
		t.Errorf("DCE left %d instructions:\n%s", n, f)
	}
}

func TestCondBrFolding(t *testing.T) {
	f := &ir.Func{Name: "t", Sig: &types.FuncSig{Ret: i64}}
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	b2 := f.NewBlock()
	c := f.NewValue(i64)
	r := f.NewValue(i64)
	b0.Insts = []*ir.Inst{
		{Op: ir.OpConst, Res: c, Imm: 1, Ty: i64},
		{Op: ir.OpCondBr, Res: ir.NoValue, Args: []ir.Value{c}, Blk: b1.ID, Blk2: b2.ID},
	}
	b1.Insts = []*ir.Inst{
		{Op: ir.OpConst, Res: r, Imm: 7, Ty: i64},
		{Op: ir.OpRet, Res: ir.NoValue, Args: []ir.Value{r}},
	}
	b2.Insts = []*ir.Inst{
		{Op: ir.OpConst, Res: r, Imm: 8, Ty: i64},
		{Op: ir.OpRet, Res: ir.NoValue, Args: []ir.Value{r}},
	}
	mod := ir.NewModule()
	mod.AddFunc(f)
	Run(mod, O2())
	// The false branch becomes unreachable and must be removed.
	if len(f.Blocks) != 2 {
		t.Errorf("unreachable block not removed: %d blocks\n%s", len(f.Blocks), f)
	}
	if f.Blocks[0].Insts[len(f.Blocks[0].Insts)-1].Op != ir.OpBr {
		t.Errorf("condbr on constant not folded:\n%s", f)
	}
}

func TestCopyPropRespectsMutation(t *testing.T) {
	// v2 = copy v1; v1 = const 9; use v2  -- must NOT propagate v1 into
	// the use (mutable vregs).
	f := &ir.Func{Name: "t", Sig: &types.FuncSig{Ret: i64}}
	b := f.NewBlock()
	v1 := f.NewValue(i64)
	v2 := f.NewValue(i64)
	b.Insts = []*ir.Inst{
		{Op: ir.OpConst, Res: v1, Imm: 5, Ty: i64},
		{Op: ir.OpCopy, Res: v2, Args: []ir.Value{v1}},
		{Op: ir.OpConst, Res: v1, Imm: 9, Ty: i64},
		{Op: ir.OpRet, Res: ir.NoValue, Args: []ir.Value{v2}},
	}
	mod := ir.NewModule()
	mod.AddFunc(f)
	Run(mod, Passes{copyProp: true})
	ret := f.Blocks[0].Insts[len(f.Blocks[0].Insts)-1]
	if ret.Args[0] == v1 {
		t.Fatalf("copy-prop propagated across a redefinition:\n%s", f)
	}
}

func TestLocalCSE(t *testing.T) {
	f := &ir.Func{Name: "t", Sig: &types.FuncSig{Ret: i64}}
	b := f.NewBlock()
	a := f.NewValue(i64)
	c := f.NewValue(i64)
	s1 := f.NewValue(i64)
	s2 := f.NewValue(i64)
	r := f.NewValue(i64)
	// Use opaque sources (call results) so const-folding can't interfere.
	b.Insts = []*ir.Inst{
		{Op: ir.OpCall, Callee: "src", Res: a},
		{Op: ir.OpCall, Callee: "src", Res: c},
		{Op: ir.OpAdd, Res: s1, Args: []ir.Value{a, c}},
		{Op: ir.OpAdd, Res: s2, Args: []ir.Value{a, c}}, // same expr
		{Op: ir.OpAdd, Res: r, Args: []ir.Value{s1, s2}},
		{Op: ir.OpRet, Res: ir.NoValue, Args: []ir.Value{r}},
	}
	mod := ir.NewModule()
	mod.AddFunc(f)
	Run(mod, Passes{localCSE: true})
	count := 0
	for _, in := range f.Blocks[0].Insts {
		if in.Op == ir.OpCopy {
			count++
		}
	}
	if count != 1 {
		t.Errorf("CSE should rewrite the duplicate add into a copy:\n%s", f)
	}
}

// runOne runs the selected passes over a module holding only f.
func runOne(f *ir.Func, p Passes) {
	mod := ir.NewModule()
	mod.AddFunc(f)
	Run(mod, p)
}

func TestLocalCSEStaleFacts(t *testing.T) {
	// Each case computes add a, c twice with something in between; the
	// second add is a recomputation only while a, c and the first result
	// all still hold what they held at the first.
	cases := []struct {
		name  string
		body  func(a, c, d, s1, s2 ir.Value) []*ir.Inst
		merge bool
	}{
		{"recomputation", func(a, c, d, s1, s2 ir.Value) []*ir.Inst {
			return []*ir.Inst{
				{Op: ir.OpAdd, Res: s1, Args: []ir.Value{a, c}},
				{Op: ir.OpAdd, Res: s2, Args: []ir.Value{a, c}},
			}
		}, true},
		{"x = add x, c; y = add x, c", func(a, c, d, s1, s2 ir.Value) []*ir.Inst {
			return []*ir.Inst{
				{Op: ir.OpAdd, Res: a, Args: []ir.Value{a, c}},
				{Op: ir.OpAdd, Res: s2, Args: []ir.Value{a, c}},
			}
		}, false},
		{"operand redefined by a copy", func(a, c, d, s1, s2 ir.Value) []*ir.Inst {
			return []*ir.Inst{
				{Op: ir.OpAdd, Res: s1, Args: []ir.Value{a, c}},
				{Op: ir.OpCopy, Res: a, Args: []ir.Value{d}},
				{Op: ir.OpAdd, Res: s2, Args: []ir.Value{a, c}},
			}
		}, false},
		{"first result redefined", func(a, c, d, s1, s2 ir.Value) []*ir.Inst {
			return []*ir.Inst{
				{Op: ir.OpAdd, Res: s1, Args: []ir.Value{a, c}},
				{Op: ir.OpCopy, Res: s1, Args: []ir.Value{d}},
				{Op: ir.OpAdd, Res: s2, Args: []ir.Value{a, c}},
			}
		}, false},
	}
	for _, tc := range cases {
		f := &ir.Func{Name: "t", Sig: &types.FuncSig{Ret: i64}}
		b := f.NewBlock()
		a, c, d := f.NewValue(i64), f.NewValue(i64), f.NewValue(i64)
		s1, s2 := f.NewValue(i64), f.NewValue(i64)
		b.Insts = []*ir.Inst{
			{Op: ir.OpCall, Callee: "src", Res: a},
			{Op: ir.OpCall, Callee: "src", Res: c},
			{Op: ir.OpCall, Callee: "src", Res: d},
		}
		b.Insts = append(b.Insts, tc.body(a, c, d, s1, s2)...)
		b.Insts = append(b.Insts, &ir.Inst{Op: ir.OpRet, Res: ir.NoValue, Args: []ir.Value{s2}})
		runOne(f, Passes{localCSE: true})
		second := b.Insts[len(b.Insts)-2] // the def of s2
		if merged := second.Op == ir.OpCopy; merged != tc.merge {
			t.Errorf("%s: merged = %v, want %v:\n%s", tc.name, merged, tc.merge, f)
		}
	}
}

func TestCopyPropAliasLifetime(t *testing.T) {
	// d = copy s; <kill>; ret d -- the alias holds only until s or d is
	// redefined, and only within the block.
	cases := []struct {
		name string
		kill func(f *ir.Func, s, d ir.Value) []*ir.Inst
		keep bool // whether ret may read s
	}{
		{"live", func(*ir.Func, ir.Value, ir.Value) []*ir.Inst { return nil }, true},
		{"source redefined", func(f *ir.Func, s, d ir.Value) []*ir.Inst {
			return []*ir.Inst{{Op: ir.OpCall, Callee: "src", Res: s}}
		}, false},
		{"destination redefined", func(f *ir.Func, s, d ir.Value) []*ir.Inst {
			return []*ir.Inst{{Op: ir.OpCall, Callee: "src", Res: d}}
		}, false},
	}
	for _, tc := range cases {
		f := &ir.Func{Name: "t", Sig: &types.FuncSig{Ret: i64}}
		b := f.NewBlock()
		s := f.NewValue(i64)
		d := f.NewValue(i64)
		b.Insts = []*ir.Inst{
			{Op: ir.OpCall, Callee: "src", Res: s},
			{Op: ir.OpCopy, Res: d, Args: []ir.Value{s}},
		}
		b.Insts = append(b.Insts, tc.kill(f, s, d)...)
		b.Insts = append(b.Insts, &ir.Inst{Op: ir.OpRet, Res: ir.NoValue, Args: []ir.Value{d}})
		runOne(f, Passes{copyProp: true})
		ret := b.Insts[len(b.Insts)-1]
		if got := ret.Args[0] == s; got != tc.keep {
			t.Errorf("%s: ret reads %v, want the copy's source %v: %v\n%s", tc.name, ret.Args[0], s, tc.keep, f)
		}
	}

}

func TestFactsStayInBlock(t *testing.T) {
	// b0: k = const 5; s1 = add a, c; d = copy a; br b1
	// b1: s2 = add a, c; r = add d, s2; q = add k, k; ret r
	// b1 may be entered from elsewhere, so neither the constant, the copy
	// nor the add of b0 may be used there.
	f := &ir.Func{Name: "t", Sig: &types.FuncSig{Ret: i64}}
	b0, b1 := f.NewBlock(), f.NewBlock()
	a, c, d, k := f.NewValue(i64), f.NewValue(i64), f.NewValue(i64), f.NewValue(i64)
	s1, s2, r, q := f.NewValue(i64), f.NewValue(i64), f.NewValue(i64), f.NewValue(i64)
	b0.Insts = []*ir.Inst{
		{Op: ir.OpCall, Callee: "src", Res: a},
		{Op: ir.OpCall, Callee: "src", Res: c},
		{Op: ir.OpConst, Res: k, Imm: 5, Ty: i64},
		{Op: ir.OpAdd, Res: s1, Args: []ir.Value{a, c}},
		{Op: ir.OpCopy, Res: d, Args: []ir.Value{a}},
		{Op: ir.OpCall, Callee: "sink", Res: ir.NoValue, Args: []ir.Value{s1}},
		{Op: ir.OpBr, Res: ir.NoValue, Blk: b1.ID},
	}
	b1.Insts = []*ir.Inst{
		{Op: ir.OpAdd, Res: s2, Args: []ir.Value{a, c}},
		{Op: ir.OpAdd, Res: r, Args: []ir.Value{d, s2}},
		{Op: ir.OpAdd, Res: q, Args: []ir.Value{k, k}},
		{Op: ir.OpCall, Callee: "sink", Res: ir.NoValue, Args: []ir.Value{q}},
		{Op: ir.OpRet, Res: ir.NoValue, Args: []ir.Value{r}},
	}
	runOne(f, Passes{constFold: true, copyProp: true, localCSE: true})
	if b1.Insts[0].Op != ir.OpAdd {
		t.Errorf("CSE reused a value from another block:\n%s", f)
	}
	if b1.Insts[1].Args[0] != d {
		t.Errorf("copy alias crossed a block boundary:\n%s", f)
	}
	if b1.Insts[2].Op != ir.OpAdd {
		t.Errorf("a constant from another block was folded:\n%s", f)
	}
}

func TestConstFoldRespectsRedefinition(t *testing.T) {
	// k = const 5; k = call src; q = add k, k -- k is no longer 5.
	f := &ir.Func{Name: "t", Sig: &types.FuncSig{Ret: i64}}
	b := f.NewBlock()
	k := f.NewValue(i64)
	q := f.NewValue(i64)
	b.Insts = []*ir.Inst{
		{Op: ir.OpConst, Res: k, Imm: 5, Ty: i64},
		{Op: ir.OpCall, Callee: "src", Res: k},
		{Op: ir.OpAdd, Res: q, Args: []ir.Value{k, k}},
		{Op: ir.OpRet, Res: ir.NoValue, Args: []ir.Value{q}},
	}
	runOne(f, Passes{constFold: true})
	if b.Insts[2].Op != ir.OpAdd {
		t.Errorf("folded a constant across its redefinition:\n%s", f)
	}
}

func TestLocalCSEConstantsKeyedByType(t *testing.T) {
	// Two 0s of different declared types stay apart (their qualifiers
	// may resolve differently), while two 0s of one type merge even when
	// vreg 0 is redefined between them: a constant's key names no operand.
	priv := types.MakeInt(8, true, types.Private)
	f := &ir.Func{Name: "t", Sig: &types.FuncSig{Ret: i64}}
	b := f.NewBlock()
	v0 := f.NewValue(i64)
	pub0 := f.NewValue(i64)
	priv0 := f.NewValue(priv)
	pub1 := f.NewValue(i64)
	b.Insts = []*ir.Inst{
		{Op: ir.OpConst, Res: pub0, Imm: 0, Ty: i64},
		{Op: ir.OpConst, Res: priv0, Imm: 0, Ty: priv},
		{Op: ir.OpCall, Callee: "src", Res: v0},
		{Op: ir.OpConst, Res: pub1, Imm: 0, Ty: i64},
		{Op: ir.OpCall, Callee: "sink", Res: ir.NoValue, Args: []ir.Value{pub0, priv0, pub1, v0}},
		{Op: ir.OpRet, Res: ir.NoValue, Args: []ir.Value{pub0}},
	}
	if v0 != 0 {
		t.Fatalf("test wants the redefined value to be vreg 0, got %v", v0)
	}
	runOne(f, Passes{localCSE: true})
	if b.Insts[1].Op != ir.OpConst {
		t.Errorf("a private 0 merged with a public one:\n%s", f)
	}
	if in := b.Insts[3]; in.Op != ir.OpCopy || in.Args[0] != pub0 {
		t.Errorf("two public 0s did not merge across a def of vreg 0:\n%s", f)
	}
}

func TestNoValueOperands(t *testing.T) {
	// irgen leaves NoValue where a void call's result is used. No pass may
	// index by it; it is never defined, so facts naming it stay live.
	f := &ir.Func{Name: "t", Sig: &types.FuncSig{Ret: i64}}
	b := f.NewBlock()
	c, d, s1, s2 := f.NewValue(i64), f.NewValue(i64), f.NewValue(i64), f.NewValue(i64)
	b.Insts = []*ir.Inst{
		{Op: ir.OpConst, Res: c, Imm: 1, Ty: i64},
		{Op: ir.OpCopy, Res: d, Args: []ir.Value{ir.NoValue}},
		{Op: ir.OpAdd, Res: s1, Args: []ir.Value{c, ir.NoValue}},
		{Op: ir.OpAdd, Res: s2, Args: []ir.Value{c, ir.NoValue}},
		{Op: ir.OpCall, Callee: "sink", Res: ir.NoValue, Args: []ir.Value{d, s1, s2}},
		{Op: ir.OpRet, Res: ir.NoValue, Args: []ir.Value{c}},
	}
	mod := ir.NewModule()
	mod.AddFunc(f)
	Run(mod, O2())
	call := b.Insts[len(b.Insts)-2]
	if call.Op != ir.OpCall || call.Args[0] != ir.NoValue || call.Args[1] != call.Args[2] {
		t.Errorf("want the copy propagated and the second add merged:\n%s", f)
	}
}
