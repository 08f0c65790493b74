package codegen

import (
	"testing"

	"confllvm/internal/ir"
	"confllvm/internal/types"
)

var (
	pubLong  = types.MakeInt(8, true, types.Public)
	privLong = types.MakeInt(8, true, types.Private)
	pubInt   = types.MakeInt(4, true, types.Public)
	pubFloat = types.MakeFloat(types.Public)
)

// runPrepass applies prepass to f with the resolved taint and float-ness
// read from the value types.
func runPrepass(f *ir.Func) *ir.Func {
	return prepass(f,
		func(v ir.Value) bool { return f.ValueType(v).Qual == types.Private },
		func(v ir.Value) bool { return f.ValueType(v).Kind == types.Float })
}

// TestPrepassCopyFolding: t = op; d = copy t folds to d = op only when t
// and d agree on privacy and float-ness; a taint or float/int mismatch
// keeps the copy.
func TestPrepassCopyFolding(t *testing.T) {
	cases := []struct {
		name   string
		tt, dt *types.Type
		fold   bool
	}{
		{"public to public", pubLong, pubLong, true},
		{"public to private", pubLong, privLong, false},
		{"private to public", privLong, pubLong, false},
		{"float to int", pubFloat, pubLong, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := &ir.Func{Name: "f", Ret: tc.dt}
			a := f.NewValue(tc.tt)
			f.ParamRegs = []ir.Value{a}
			f.Params = []*types.Type{tc.tt}
			tmp := f.NewValue(tc.tt)
			d := f.NewValue(tc.dt)
			op := ir.OpAdd
			if tc.tt.Kind == types.Float {
				op = ir.OpFAdd
			}
			f.NewBlock().Insts = []*ir.Inst{
				{Op: op, Res: tmp, Args: []ir.Value{a, a}},
				{Op: ir.OpCopy, Res: d, Args: []ir.Value{tmp}},
				{Op: ir.OpRet, Res: ir.NoValue, Args: []ir.Value{d}},
			}
			got := runPrepass(f).Blocks[0].Insts
			folded := len(got) == 2 && got[0].Op == op && got[0].Res == d
			if folded != tc.fold {
				t.Errorf("folded = %v, want %v: %v", folded, tc.fold, got)
			}
		})
	}
}

// TestPrepassImmediates: a constant folds into an RI operand only when it
// is defined once, earlier in the same block. A constant left without
// uses is dropped; one still used elsewhere stays.
func TestPrepassImmediates(t *testing.T) {
	f := &ir.Func{Name: "f", Ret: pubLong}
	x := f.NewValue(pubLong)
	f.ParamRegs = []ir.Value{x}
	f.Params = []*types.Type{pubLong}
	local := f.NewValue(pubLong)  // defined once, in b1 before its use
	outer := f.NewValue(pubLong)  // defined once, in b0
	twice := f.NewValue(pubLong)  // defined in b0 and b1
	later := f.NewValue(pubLong)  // defined once, in b1 after its use
	swapped := f.NewValue(pubInt) // icmp with the constant on the left
	redef := f.NewValue(pubLong)  // a constant, then redefined, before a use in b1
	r1, r2, r3, r4 := f.NewValue(pubLong), f.NewValue(pubLong), f.NewValue(pubLong), f.NewValue(pubLong)
	r5 := f.NewValue(pubLong)
	c := f.NewValue(pubInt)
	b0, b1, b2 := f.NewBlock(), f.NewBlock(), f.NewBlock()
	b0.Insts = []*ir.Inst{
		{Op: ir.OpConst, Res: outer, Imm: 3},
		{Op: ir.OpConst, Res: twice, Imm: 4},
		{Op: ir.OpBr, Res: ir.NoValue, Blk: 1},
	}
	b1.Insts = []*ir.Inst{
		{Op: ir.OpConst, Res: local, Imm: 2},
		{Op: ir.OpConst, Res: swapped, Imm: 9},
		{Op: ir.OpAdd, Res: r1, Args: []ir.Value{x, local}},
		{Op: ir.OpSub, Res: r2, Args: []ir.Value{r1, outer}},
		{Op: ir.OpMul, Res: r3, Args: []ir.Value{r2, twice}},
		{Op: ir.OpShl, Res: r4, Args: []ir.Value{r3, later}},
		{Op: ir.OpConst, Res: redef, Imm: 7},
		{Op: ir.OpAdd, Res: redef, Args: []ir.Value{x, redef}},
		{Op: ir.OpOr, Res: r5, Args: []ir.Value{r4, redef}},
		{Op: ir.OpConst, Res: later, Imm: 5},
		{Op: ir.OpConst, Res: twice, Imm: 6},
		{Op: ir.OpICmp, Res: c, Args: []ir.Value{swapped, r4}, Pred: ir.PredSLT},
		{Op: ir.OpCondBr, Res: ir.NoValue, Args: []ir.Value{c}, Blk: 1, Blk2: 2},
	}
	b2.Insts = []*ir.Inst{{Op: ir.OpRet, Res: ir.NoValue, Args: []ir.Value{r5}}}

	got := runPrepass(f).Blocks[1].Insts
	byRes := map[ir.Value]*ir.Inst{}
	var cmp *ir.Inst
	for _, in := range got {
		if in.Op == ir.OpConst && (in.Res == local || in.Res == swapped) {
			t.Errorf("folded constant v%d was not dropped", in.Res)
		}
		if in.Op == ir.OpICmp {
			cmp = in
		}
		byRes[in.Res] = in
	}
	if in := byRes[r1]; len(in.Args) != 1 || in.Imm != 2 {
		t.Errorf("block-local single-def constant not folded: %v", in)
	}
	for _, v := range []ir.Value{r2, r3, r4, r5} {
		if in := byRes[v]; len(in.Args) != 2 {
			t.Errorf("constant from another block, redefined or defined after the use was folded: %v", in)
		}
	}
	if cmp == nil || cmp.Res != ir.NoValue || len(cmp.Args) != 1 || cmp.Args[0] != r4 ||
		cmp.Imm != 9 || cmp.Pred != ir.PredSGT {
		t.Errorf("icmp slt 9, r4 should become the fused icmp sgt r4, 9: %v", cmp)
	}
	if br := got[len(got)-1]; br.Op != ir.OpCondBr || len(br.Args) != 0 {
		t.Errorf("condbr not fused with its compare: %v", br)
	}
}

// TestPrepassCastOfConstant: a trunc of a constant becomes the constant
// it canonicalizes to (sign-extended for a signed type, zero-extended for
// an unsigned one, which then folds into an RI operand), even when its
// result is a multiply-defined variable;
// a trunc whose only use is the next store, no wider than the trunc,
// folds into the store, and one feeding a wider store stays.
func TestPrepassCastOfConstant(t *testing.T) {
	pubChar := types.MakeInt(1, true, types.Public)
	pubUint := types.MakeInt(4, false, types.Public)
	f := &ir.Func{Name: "f", Ret: pubLong}
	x := f.NewValue(pubLong)
	p := f.NewValue(types.MakePtr(pubChar, types.Public))
	f.ParamRegs = []ir.Value{x, p}
	f.Params = []*types.Type{pubLong, f.ValueType(p)}
	k := f.NewValue(pubLong)
	v := f.NewValue(pubInt) // defined twice
	u := f.NewValue(pubUint)
	tr, wide := f.NewValue(pubChar), f.NewValue(pubChar)
	f.NewBlock().Insts = []*ir.Inst{
		{Op: ir.OpConst, Res: k, Imm: 0x1ffffffff, Ty: pubLong},
		{Op: ir.OpTrunc, Res: v, Args: []ir.Value{k}, Ty: pubInt},
		{Op: ir.OpTrunc, Res: u, Args: []ir.Value{k}, Ty: pubUint},
		{Op: ir.OpTrunc, Res: tr, Args: []ir.Value{x}, Ty: pubChar},
		{Op: ir.OpStore, Res: ir.NoValue, Args: []ir.Value{p, tr}, Ty: pubChar},
		{Op: ir.OpTrunc, Res: wide, Args: []ir.Value{x}, Ty: pubChar},
		{Op: ir.OpStore, Res: ir.NoValue, Args: []ir.Value{p, wide}, Ty: pubInt},
		{Op: ir.OpAdd, Res: v, Args: []ir.Value{v, u}},
		{Op: ir.OpRet, Res: ir.NoValue, Args: []ir.Value{v}},
	}
	got := runPrepass(f).Blocks[0].Insts
	if in := got[0]; in.Op != ir.OpConst || in.Res != v || in.Imm != -1 {
		t.Errorf("signed trunc of a constant into a multiply-defined variable: %v, want v%d = const -1", in, v)
	}
	if in := got[1]; in.Op != ir.OpStore || in.Args[0] != p || in.Args[1] != x {
		t.Errorf("trunc+store: %v, want store v%d, v%d", in, p, x)
	}
	if in := got[2]; in.Op != ir.OpTrunc || in.Res != wide {
		t.Errorf("trunc before a wider store folded: %v", in)
	}
	if in := got[4]; in.Op != ir.OpAdd || len(in.Args) != 1 || in.Imm != 0xffffffff {
		t.Errorf("unsigned trunc of a constant: %v, want add v%d, %d", in, v, 0xffffffff)
	}
	if len(got) != 6 {
		t.Errorf("got %d instructions, want 6: %v", len(got), got)
	}
}
