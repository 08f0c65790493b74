package opt

import (
	"testing"

	"confllvm/internal/ir"
	"confllvm/internal/irgen"
	"confllvm/internal/minic"
)

// countTruncs compiles src through irgen and the given passes and counts
// the truncs left in function f.
func countTruncs(t *testing.T, src string, p Passes) int {
	t.Helper()
	gen := &minic.QualGen{}
	file, err := minic.Parse("t.c", src, nil, gen)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	mod, err := irgen.Gen([]*minic.File{file}, gen)
	if err != nil {
		t.Fatalf("irgen: %v", err)
	}
	Run(mod, p)
	n := 0
	for _, b := range mod.Func("f").Blocks {
		for _, in := range b.Insts {
			if in.Op == ir.OpTrunc {
				n++
			}
		}
	}
	return n
}

// TestTruncElim: a trunc stays wherever the high bits of its result can
// reach a use that reads them, and goes where they reach only uses whose
// low bits depend on the low bits alone. kept counts the truncs left by
// O2; dropped counts those O2 without truncElim would have left too.
func TestTruncElim(t *testing.T) {
	cases := []struct {
		name          string
		src           string
		kept, dropped int
	}{
		// Readers: the trunc after each narrow add or mul stays.
		{"compare", `long f(int a, int b) { int s = a + b; if (s < 0) return 1; return 2; }`, 1, 0},
		{"branch", `long f(int a, int b) { int s = a * b; if (s) return 1; return 2; }`, 1, 0},
		{"div", `long f(int a, int b) { int s = a + b; return s / 3; }`, 1, 0},
		{"mod", `long f(int a, int b) { int s = a + b; return s % 3; }`, 1, 0},
		{"right shift", `long f(int a, int b) { int s = a + b; return s >> 2; }`, 1, 0},
		{"unsigned right shift", `long f(unsigned a, unsigned b) { unsigned s = a * b; return s >> 2; }`, 1, 0},
		{"index", `long f(long *p, int a, int b) { int s = a + b; return p[s]; }`, 1, 0},
		{"widen to long", `long f(int a, int b) { int s = a + b; long l = s; return l; }`, 1, 0},
		{"widen in a long add", `long f(int a, int b, long c) { int s = a + b; return s + c; }`, 1, 0},
		{"int to float", `double f(int a, int b) { int s = a + b; return s; }`, 1, 0},
		{"call argument", `extern void g(int x); void f(int a, int b) { g(a + b); }`, 1, 0},
		{"return", `int f(int a, int b) { return a + b; }`, 1, 0},
		{"and then compare", `long f(int a, int b) { int s = (a + b) & b; return s == 3; }`, 1, 0},
		{"accumulator shifted after its loop",
			`long f(int *p, int n) { int acc = 0; int i; for (i = 0; i < n; i++) acc += p[i]; return acc >> 4; }`, 1, 0},
		// Non-readers only: every trunc goes.
		{"add mul xor chain stored", `void f(int *p, int a, int b) { p[0] = ((a + b) * a) ^ b; }`, 0, 2},
		{"store no wider", `void f(char *p, int a) { p[0] = a + 1; }`, 0, 2},
		{"shl value and count", `void f(int *p, int a, int b) { p[0] = (a * a) << (b + 1); }`, 0, 3},
		{"narrower trunc", `void f(short *p, int a, int b) { short s = (a + b) * 3; p[0] = s; }`, 0, 3},
		{"hash loop stored",
			`void f(int *p, int n) { int h = 0; int i; for (i = 0; i < n; i++) h = h * 31 + p[i]; p[0] = h; }`, 0, 2},
		// Mixed: the trunc to the narrower type is read by the return,
		// the one after the add only by that trunc.
		{"narrower trunc returned", `char f(int a, int b) { int s = a + b; return (char)s; }`, 1, 1},
		// A wider store reads the high bits of a narrow value.
		{"store wider than the value", `void f(long *p, int a) { p[0] = a + 1; }`, 1, 0},
	}
	noElim := O2()
	noElim.truncElim = false
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			kept := countTruncs(t, tc.src, O2())
			before := countTruncs(t, tc.src, noElim)
			if kept != tc.kept || before-kept != tc.dropped {
				t.Errorf("kept %d of %d truncs, want %d kept and %d dropped", kept, before, tc.kept, tc.dropped)
			}
		})
	}
}
