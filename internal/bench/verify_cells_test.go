package bench

import (
	"runtime"
	"testing"

	"confllvm"
	"confllvm/internal/scenario"
)

// TestVerifyCells runs one verify-figure cell per deployable scheme on
// the short KV workload and pins the figure's hard guarantees: the
// deterministic counters are identical across repeated measurements, and
// every seeded mutant is killed by contract.
func TestVerifyCells(t *testing.T) {
	wl := KVWorkload(scenario.DefaultKV(true))
	cells := VerifyCells("verify", []Workload{wl},
		[]confllvm.Variant{confllvm.VariantMPX, confllvm.VariantSeg}, 0x5eedbeef)
	if len(cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(cells))
	}
	for _, res := range RunMatrix(cells, 1) {
		if res.Err != nil {
			t.Fatalf("[%s %v] %v", res.Cell.Row, res.Cell.Variant, res.Err)
		}
		rep := res.M.Verify
		if rep == nil {
			t.Fatalf("[%s %v] no verify report", res.Cell.Row, res.Cell.Variant)
		}
		if rep.Funcs == 0 || rep.Stubs == 0 || rep.Insts == 0 || rep.CodeBytes == 0 {
			t.Errorf("[%v] implausible counters: %+v", res.Cell.Variant, rep)
		}
		if rep.MutantsTried == 0 || rep.MutantsKilled != rep.MutantsTried {
			t.Errorf("[%v] mutation kill rate %d/%d, want 100%%",
				res.Cell.Variant, rep.MutantsKilled, rep.MutantsTried)
		}
		if rep.SerialNS <= 0 || rep.ParallelNS <= 0 {
			t.Errorf("[%v] untimed lanes: %+v", res.Cell.Variant, rep)
		}
		if rep.FuncsPerSec() <= 0 || rep.InstsPerSec() <= 0 {
			t.Errorf("[%v] zero throughput: %+v", res.Cell.Variant, rep)
		}
		// The acceptance criterion's speedup assertion only holds with real
		// parallel hardware; on a single-core host the figure still reports
		// the (≈1.0) ratio.
		if runtime.NumCPU() > 1 && rep.Workers > 1 && rep.Speedup() <= 0 {
			t.Errorf("[%v] speedup %v not positive", res.Cell.Variant, rep.Speedup())
		}

		// The deterministic part of the report must reproduce exactly.
		again, err := verifyCell(wl, res.Cell.Variant, 0x5eedbeef)
		if err != nil {
			t.Fatalf("[%v] re-measure: %v", res.Cell.Variant, err)
		}
		if again.Funcs != rep.Funcs || again.Stubs != rep.Stubs ||
			again.Insts != rep.Insts || again.CodeBytes != rep.CodeBytes ||
			again.MutantsTried != rep.MutantsTried || again.MutantsKilled != rep.MutantsKilled {
			t.Errorf("[%v] deterministic counters drifted: %+v vs %+v",
				res.Cell.Variant, again, rep)
		}
	}
}
