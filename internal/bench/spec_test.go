package bench

import (
	"testing"

	"confllvm"
)

// TestSPECKernelsCrossVariant runs every kernel in every configuration,
// plus the §5.1 ablation's OurMPX-Naive, and requires bit-identical
// outputs: the instrumentation must never change program semantics.
func TestSPECKernelsCrossVariant(t *testing.T) {
	for _, k := range SPECKernels() {
		k := k
		k.Params = k.EffectiveParams(testing.Short())
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel() // kernels are independent (workload, variant) cells
			wl := SPECWorkload(k, k.Params)
			var golden []int64
			for _, v := range append(confllvm.AllVariants(), confllvm.VariantMPXNaive) {
				m, err := wl.Run(v, nil)
				if err != nil {
					t.Fatalf("[%v] %v", v, err)
				}
				if len(m.Outputs) == 0 {
					t.Fatalf("[%v] no output", v)
				}
				if golden == nil {
					golden = m.Outputs
					continue
				}
				if len(m.Outputs) != len(golden) {
					t.Fatalf("[%v] output arity mismatch", v)
				}
				for i := range golden {
					if m.Outputs[i] != golden[i] {
						t.Errorf("[%v] output[%d] = %d, want %d (semantics changed by instrumentation)",
							v, i, m.Outputs[i], golden[i])
					}
				}
			}
		})
	}
}

// TestSPECKernelsPassVerifyGate compiles every kernel under the
// deployable (verifiable) variants and runs the binary verifier on each.
// Regression for a check-coalescing soundness bug: reloading a spilled
// pointer into a scratch register used to leave the register's coalesced
// MPX-check entry live, so the reloaded pointer was dereferenced on
// another pointer's bound check — miscompiled code that the
// verify-before-load gate rejected.
func TestSPECKernelsPassVerifyGate(t *testing.T) {
	for _, k := range SPECKernels() {
		wl := SPECWorkload(k, k.EffectiveParams(true))
		for _, v := range []confllvm.Variant{confllvm.VariantMPX, confllvm.VariantSeg} {
			art, err := confllvm.Compile(wl.Prog(v), v)
			if err != nil {
				t.Fatalf("[%v/%s] compile: %v", v, k.Name, err)
			}
			if !art.Verifiable() {
				t.Fatalf("[%v/%s] expected a verifiable configuration", v, k.Name)
			}
			if err := confllvm.Verify(art); err != nil {
				t.Errorf("[%v/%s] verifier rejected compiler output: %v", v, k.Name, err)
			}
		}
	}
}

// TestSPECOverheadShape checks the headline shape of Fig. 5: the MPX
// scheme costs more than the segmentation scheme, CFI adds a small
// overhead over Bare, and everything instrumented is slower than Base.
// It also checks the §5.1 ablation's direction: the MPX optimizations
// only remove checks, so OurMPX-Naive is never faster than OurMPX.
func TestSPECOverheadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-variant sweep is slow")
	}
	tbl := NewTable("Fig5", append(confllvm.AllVariants()[:6:6], confllvm.VariantMPXNaive), "cycles")
	for _, k := range SPECKernels() {
		wl := SPECWorkload(k, k.Params)
		for _, v := range []confllvm.Variant{confllvm.VariantBase, confllvm.VariantBare,
			confllvm.VariantCFI, confllvm.VariantMPX, confllvm.VariantSeg, confllvm.VariantMPXNaive} {
			m, err := wl.Run(v, nil)
			if err != nil {
				t.Fatalf("[%v/%s] %v", v, k.Name, err)
			}
			tbl.Set(k.Name, v, m.Wall)
		}
		naive, opt := tbl.Overhead(k.Name, confllvm.VariantMPXNaive), tbl.Overhead(k.Name, confllvm.VariantMPX)
		if naive < opt {
			t.Errorf("[%s] OurMPX-Naive (%.2f%%) beat OurMPX (%.2f%%): the §5.1 optimizations added work",
				k.Name, naive, opt)
		}
	}
	mpx := tbl.GeoMeanOverhead(confllvm.VariantMPX)
	seg := tbl.GeoMeanOverhead(confllvm.VariantSeg)
	cfi := tbl.GeoMeanOverhead(confllvm.VariantCFI)
	bare := tbl.GeoMeanOverhead(confllvm.VariantBare)
	t.Logf("geomean overheads: Bare=%.1f%% CFI=%.1f%% MPX=%.1f%% Seg=%.1f%%", bare, cfi, mpx, seg)
	if mpx <= seg {
		t.Errorf("MPX overhead (%.1f%%) should exceed segmentation overhead (%.1f%%)", mpx, seg)
	}
	if cfi < bare {
		t.Errorf("CFI overhead (%.1f%%) should be at least Bare overhead (%.1f%%)", cfi, bare)
	}
	if mpx <= 0 || seg <= 0 {
		t.Errorf("instrumented configs must cost something: MPX=%.1f%% Seg=%.1f%%", mpx, seg)
	}
}
