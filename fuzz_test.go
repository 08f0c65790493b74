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
// empty loop bodies, register pressure (pressure: 15 public and
// private locals live across a loop with a call inside it, where spill
// choice and the register masks' taint rules interact), narrow-integer
// conversions and wraparound (int-narrow), int arithmetic wrapping past
// 2^31 before a compare, a division, an index, a right shift and a
// conversion to double, with unsigned 64-bit division beside it
// (int-wrap), void calls used as values (void-result, void-operand), a
// local read in its own initializer (self-init), and struct fields off
// one pointer, buf[i-1] and p[-1] (addr-fold), whose address arithmetic
// folds into displaced and indexed memory operands, and divisions and
// remainders of public and private long, int, short and unsigned values
// by constants of both signs (div-const), which lower to multiplies,
// mulh and shifts, and functions declared before their definitions,
// called directly, through a function pointer and a table of them, with
// varargs, an array parameter and a private parameter and return
// (fn-sigs), whose CFI taint bits every call site must match.
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
