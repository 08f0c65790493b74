package regalloc_test

import (
	"reflect"
	"testing"

	"confllvm"
	"confllvm/internal/bench"
	"confllvm/internal/ir"
	"confllvm/internal/irgen"
	"confllvm/internal/minic"
	"confllvm/internal/opt"
	"confllvm/internal/regalloc"
	"confllvm/internal/taint"
	"confllvm/internal/types"
)

// lowerToTaint runs confllvm.Compile's stages up to the point codegen
// takes over: the IR module and taint assignment Allocate sees.
func lowerToTaint(t *testing.T, prog confllvm.Program, v confllvm.Variant) (*ir.Module, *taint.Assignment) {
	t.Helper()
	gen := &minic.QualGen{}
	structs := map[string]*types.Type{}
	var files []*minic.File
	for _, s := range prog.Sources {
		f, err := minic.Parse(s.Name, s.Code, structs, gen)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	mod, err := irgen.Gen(files, gen)
	if err != nil {
		t.Fatal(err)
	}
	passes := v.OptPasses()
	if prog.NoOpt {
		passes = opt.None()
	}
	opt.Run(mod, passes)
	a := &taint.Assignment{}
	if v != confllvm.VariantBase && v != confllvm.VariantBaseOA {
		a, err = taint.Infer(mod, gen.Count(), taint.Options{Strict: prog.Strict, AllPrivate: prog.AllPrivate})
		if err != nil {
			t.Fatal(err)
		}
	}
	return mod, a
}

// TestAllocateMatchesReference requires the slice-based Allocate to give
// exactly the original allocator's Result — locations, slot counts, callee-
// saved set, call facts — for every function of every benchmark program
// under every variant, with the taint predicates codegen passes.
func TestAllocateMatchesReference(t *testing.T) {
	funcs := 0
	for _, wl := range bench.Workloads(false) {
		for _, v := range confllvm.AllVariants() {
			mod, a := lowerToTaint(t, wl.Prog(v), v)
			ignoreTaint := v.Config().IgnoreTaint
			for _, f := range mod.Funcs {
				if f.Extern || f.Blocks == nil {
					continue
				}
				isPrivate := func(val ir.Value) bool {
					ty := f.ValueType(val)
					return !ignoreTaint && ty != nil && a.IsPrivate(ty.Qual)
				}
				isFloat := func(val ir.Value) bool {
					ty := f.ValueType(val)
					return ty != nil && ty.Kind == types.Float
				}
				got := regalloc.Allocate(f, isPrivate, isFloat)
				want := regalloc.RefAllocate(f, isPrivate, isFloat)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%v: %s: Allocate diverges from the reference\n got  %+v\n want %+v",
						wl.Name, v, f.Name, got, want)
				}
				funcs++
			}
		}
	}
	if funcs == 0 {
		t.Fatal("no functions compared")
	}
}
