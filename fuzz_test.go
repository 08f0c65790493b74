package confllvm_test

import (
	"strings"
	"testing"

	"confllvm"
)

// FuzzCompile drives the whole compiler on arbitrary miniC source under
// every variant and checks the two compiler-level oracles:
//
//  1. Compile never panics: every rejection is a returned error.
//  2. Every OurMPX/OurSeg artifact Compile accepts passes ConfVerify; a
//     rejection is a miscompile, since the verifier re-checks the binary
//     without trusting the compiler (§5.2).
//
// Seed corpus entries live in testdata/fuzz/FuzzCompile: the SPEC kernels
// (with the U-side library appended) and small programs covering i++,
// nested compares, && and ||, casts of literals, private/public copies,
// empty loop bodies, and register pressure (pressure: 15 public and
// private locals live across a loop with a call inside it, where spill
// eviction and the register pools' taint rules interact).
func FuzzCompile(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		// Nested macro bodies can multiply the token count by 2^n; bound n
		// as FuzzLex does to keep the fuzzer's memory in check.
		if strings.Count(src, "#") > 8 {
			return
		}
		prog := confllvm.Program{Sources: []confllvm.Source{{Name: "t.c", Code: src}}}
		for _, v := range confllvm.AllVariants() {
			art, err := confllvm.Compile(prog, v)
			if err != nil || !v.Checked() {
				continue
			}
			if err := confllvm.Verify(art); err != nil {
				t.Fatalf("%v: compiler accepted a binary the verifier rejects: %v", v, err)
			}
		}
	})
}
