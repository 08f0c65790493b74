package taint_test

import (
	"errors"
	"strings"
	"testing"

	"confllvm/internal/ir"
	"confllvm/internal/irgen"
	"confllvm/internal/minic"
	"confllvm/internal/taint"
	"confllvm/internal/types"
)

func infer(t *testing.T, src string, opts taint.Options) (*taint.Assignment, error) {
	t.Helper()
	gen := &minic.QualGen{}
	f, err := minic.Parse("t.c", src, nil, gen)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	mod, err := irgen.Gen([]*minic.File{f}, gen)
	if err != nil {
		t.Fatalf("irgen: %v", err)
	}
	return taint.Infer(mod, gen.Count(), opts)
}

func TestTransitivePropagation(t *testing.T) {
	// private -> a -> b -> c -> public sink: caught through the chain.
	_, err := infer(t, `
extern void get(private long *out);
extern void put(long v);
void f() {
	long a;
	get(&a);
	long b = a + 1;
	long c = b * 2;
	put(c);
}
`, taint.Options{})
	if err == nil {
		t.Fatal("transitive flow not caught")
	}
}

func TestPublicIntoPrivateIsFine(t *testing.T) {
	if _, err := infer(t, `
extern void sink(private long v);
void f() { sink(42); }
`, taint.Options{}); err != nil {
		t.Fatalf("L ⊑ H must be allowed: %v", err)
	}
}

func TestPointeeInvariance(t *testing.T) {
	// Assigning a pointer-to-private where pointer-to-public is expected
	// must fail even without a dereference (deep invariance).
	_, err := infer(t, `
extern void take_pub(char *p);
void f(private char *s) {
	take_pub(s);
}
`, taint.Options{})
	if err == nil {
		t.Fatal("pointee-qualifier mismatch not caught")
	}
}

func TestBranchWarningsAndStrict(t *testing.T) {
	src := `
extern void get(private long *out);
void f() {
	long a;
	get(&a);
	if (a > 0) { a = 1; }
}
`
	a, err := infer(t, src, taint.Options{})
	if err != nil {
		t.Fatalf("non-strict must accept with a warning: %v", err)
	}
	if len(a.BranchWarnings) == 0 {
		t.Fatal("expected an implicit-flow warning")
	}
	if _, err := infer(t, src, taint.Options{Strict: true}); err == nil {
		t.Fatal("strict mode must reject branch on private")
	}
	if _, err := infer(t, src, taint.Options{Strict: true, AllPrivate: true}); err != nil {
		t.Fatalf("all-private mode has no implicit flows: %v", err)
	}
}

func TestErrorCarriesPosition(t *testing.T) {
	_, err := infer(t, `
extern void get(private long *out);
extern void put(long v);
void f() {
	long a;
	get(&a);
	put(a);
}
`, taint.Options{})
	if err == nil {
		t.Fatal("expected violation")
	}
	if !strings.Contains(err.Error(), "t.c:7") {
		t.Fatalf("error lacks the leaking line: %v", err)
	}
}

func TestAllPrivateAssignment(t *testing.T) {
	a := taint.AllPrivateAssignment()
	if !a.IsPrivate(types.Public) || !a.IsPrivate(types.Qual(3)) {
		t.Fatal("all-private must resolve everything private")
	}
}

// TestPrivateVoidPointerParam is the regression test for the PR 4
// footgun: `extern void free_priv(private void *p);` used to drop the
// qualifier on the void pointee (the parser hardcoded `void` as public),
// so every private pointer passed to it tripped deep pointee invariance
// and callers had to spell the parameter `private char *`. The `private`
// must survive type erasure to void*.
func TestPrivateVoidPointerParam(t *testing.T) {
	if _, err := infer(t, `
extern void free_priv(private void *p);
extern private void *malloc_priv(long size);
void f() {
	private char *s = (private char*)malloc_priv(16);
	free_priv(s);
}
`, taint.Options{}); err != nil {
		t.Fatalf("private pointer into private void * must be allowed: %v", err)
	}
}

// TestPublicIntoPrivateVoidPointerRejected is the dual: a *public*
// pointer handed to a `private void *` parameter is still a pointee-
// qualifier mismatch and must be rejected with the usual diagnostic.
func TestPublicIntoPrivateVoidPointerRejected(t *testing.T) {
	_, err := infer(t, `
extern void free_priv(private void *p);
void f(char *s) {
	free_priv(s);
}
`, taint.Options{})
	if err == nil {
		t.Fatal("public pointee into private void * not caught")
	}
	if !strings.Contains(err.Error(), "free_priv") || !strings.Contains(err.Error(), "pointee") {
		t.Fatalf("diagnostic should name the call and the pointee: %v", err)
	}
}

// TestPlainVoidPointerStaysPublic pins the other half of the fix: an
// unqualified void* keeps its public pointee, so erasing a private
// pointer to plain void* is still a violation.
func TestPlainVoidPointerStaysPublic(t *testing.T) {
	_, err := infer(t, `
extern void free(void *p);
void f(private char *s) {
	free(s);
}
`, taint.Options{})
	if err == nil {
		t.Fatal("private pointee into public void * not caught")
	}
}

// TestEveryOpPropagatesTaint: for every op with a result and register
// operands, and each of those operands in turn, a private operand either
// makes the result private (so returning it from a function with a
// public return type is rejected) or is itself rejected where it flows
// into a public position (a public parameter). A store through a private
// address into public memory is rejected too.
func TestEveryOpPropagatesTaint(t *testing.T) {
	long := func(q types.Qual) *types.Type { return types.MakeInt(8, true, q) }
	dbl := func(q types.Qual) *types.Type { return types.MakeFloat(q) }
	pubLong := long(types.Public)
	ptr := func(q types.Qual) *types.Type { return types.MakePtr(pubLong, q) }
	sig := &types.FuncSig{Params: []*types.Type{pubLong}, Ret: pubLong}
	fnPtr := func(q types.Qual) *types.Type { return types.MakePtr(types.MakeFunc(sig), q) }
	callee := &ir.Func{Name: "g", Sig: sig, Extern: true}

	for op := ir.OpInvalid + 1; op.Class() != ir.ClassInvalid; op++ {
		var operands []func(types.Qual) *types.Type
		switch op.Class() {
		case ir.ClassConst, ir.ClassAddress, ir.ClassTerminator:
			continue // no result, or no register operands
		case ir.ClassIntBin:
			operands = []func(types.Qual) *types.Type{long, long}
		case ir.ClassFloatBin:
			operands = []func(types.Qual) *types.Type{dbl, dbl}
		case ir.ClassCompare:
			operands = []func(types.Qual) *types.Type{long, long}
			if op == ir.OpFCmp {
				operands = []func(types.Qual) *types.Type{dbl, dbl}
			}
		case ir.ClassMemory:
			if !op.HasResult() {
				continue // the store, below
			}
			operands = []func(types.Qual) *types.Type{ptr}
		case ir.ClassCall:
			operands = []func(types.Qual) *types.Type{long}
			if op == ir.OpICall {
				operands = []func(types.Qual) *types.Type{fnPtr, long}
			}
		case ir.ClassConversion:
			operands = []func(types.Qual) *types.Type{long}
			if op == ir.OpFPToInt {
				operands = []func(types.Qual) *types.Type{dbl}
			}
		case ir.ClassCopy:
			operands = []func(types.Qual) *types.Type{long}
		default:
			t.Fatalf("%v: class %d has no operand shapes here", op, op.Class())
		}
		for i := range operands {
			gen := &minic.QualGen{}
			f := &ir.Func{Name: "f", Sig: &types.FuncSig{Ret: pubLong}}
			in := &ir.Inst{Op: op, Ty: pubLong, Callee: callee.Name}
			for j, mk := range operands {
				q := types.Public
				if j == i {
					q = types.Private
				}
				v := f.NewValue(mk(q))
				f.Sig.Params, f.ParamRegs = append(f.Sig.Params, f.ValueType(v)), append(f.ParamRegs, v)
				in.Args = append(in.Args, v)
			}
			in.Res = f.NewValue(long(gen.Fresh()))
			f.NewBlock().Insts = []*ir.Inst{in, {Op: ir.OpRet, Res: ir.NoValue, Args: []ir.Value{in.Res}}}
			mod := ir.NewModule()
			mod.AddFunc(callee)
			mod.AddFunc(f)
			var te *taint.TypeError
			if _, err := taint.Infer(mod, gen.Count(), taint.Options{}); !errors.As(err, &te) {
				t.Errorf("%v with private operand %d: err = %v, want a violation", op, i, err)
			}
		}
	}

	f := &ir.Func{Name: "f", Sig: &types.FuncSig{}}
	p, v := f.NewValue(ptr(types.Private)), f.NewValue(pubLong)
	f.Sig.Params, f.ParamRegs = []*types.Type{f.ValueType(p), pubLong}, []ir.Value{p, v}
	f.NewBlock().Insts = []*ir.Inst{
		{Op: ir.OpStore, Res: ir.NoValue, Args: []ir.Value{p, v}, Ty: pubLong},
		{Op: ir.OpRet, Res: ir.NoValue},
	}
	mod := ir.NewModule()
	mod.AddFunc(f)
	var te *taint.TypeError
	if _, err := taint.Infer(mod, 0, taint.Options{}); !errors.As(err, &te) {
		t.Errorf("store through a private address into public memory: err = %v, want a violation", err)
	}
}

// TestUnknownOpClassIsAnError: an op whose class collectInst has no rule
// for makes inference fail instead of adding no constraint.
func TestUnknownOpClassIsAnError(t *testing.T) {
	long := types.MakeInt(8, true, types.Public)
	f := &ir.Func{Name: "f", Sig: &types.FuncSig{Ret: long}}
	a := f.NewValue(long)
	f.Sig.Params, f.ParamRegs = []*types.Type{long}, []ir.Value{a}
	r := f.NewValue(long)
	f.NewBlock().Insts = []*ir.Inst{
		{Op: ir.Op(255), Res: r, Args: []ir.Value{a}},
		{Op: ir.OpRet, Res: ir.NoValue, Args: []ir.Value{r}},
	}
	mod := ir.NewModule()
	mod.AddFunc(f)
	_, err := taint.Infer(mod, 0, taint.Options{})
	var te *taint.TypeError
	if err == nil || errors.As(err, &te) || !strings.Contains(err.Error(), "no constraint rule") {
		t.Fatalf("err = %v, want an unhandled-class error", err)
	}
}
