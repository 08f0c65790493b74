// Differential-execution harness: every workload is run under
// per-instruction stepping and under block dispatch (chained
// superblocks), and the executions must be bit-identical in every
// observable: final registers and flags per thread, per-thread stats
// (instructions, cycles, loads, stores, bound checks, cache misses,
// trusted calls), exit codes, memory digests, output channels, and — for
// faulting programs — the fault kind, address, PC and formatted message.
// This is the test that licenses enabling superblocks by default: any
// dispatch-layer bug that perturbs a simulated result fails here before
// it can silently skew a figure table.
package machine_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"confllvm"
	"confllvm/internal/bench"
	"confllvm/internal/machine"
)

// diffRun executes one artifact+world under per-instruction stepping and
// under block dispatch and compares everything. It returns the
// stepping-mode result for further workload-specific assertions.
func diffRun(t *testing.T, art *confllvm.Artifact, mkWorld func() *confllvm.World,
	base *machine.Config) *confllvm.Result {
	t.Helper()
	mcStep := machine.DefaultConfig()
	if base != nil {
		mcStep = *base
	}
	mcStep.Superblocks = false

	ref, err := confllvm.Run(art, mkWorld(), &mcStep)
	if err != nil {
		t.Fatalf("stepwise run: %v", err)
	}
	mc := mcStep
	mc.Superblocks = true
	got, err := confllvm.Run(art, mkWorld(), &mc)
	if err != nil {
		t.Fatalf("superblock run: %v", err)
	}
	compareResults(t, ref, got)
	return ref
}

func compareResults(t *testing.T, ref, got *confllvm.Result) {
	t.Helper()
	// Faults: kind, address, PC and message must all match.
	if (ref.Fault == nil) != (got.Fault == nil) {
		t.Fatalf("fault divergence: stepwise=%v superblock=%v", ref.Fault, got.Fault)
	}
	if ref.Fault != nil {
		if *ref.Fault != *got.Fault {
			t.Fatalf("fault mismatch:\nstepwise: %+v\nsuperblock: %+v", *ref.Fault, *got.Fault)
		}
		if ref.Fault.Error() != got.Fault.Error() {
			t.Fatalf("fault message mismatch:\nstepwise: %s\nsuperblock: %s",
				ref.Fault.Error(), got.Fault.Error())
		}
	}
	if ref.ExitCode != got.ExitCode {
		t.Fatalf("exit code: %d vs %d", ref.ExitCode, got.ExitCode)
	}
	if ref.Stats.Arch() != got.Stats.Arch() {
		t.Fatalf("aggregate stats mismatch:\nstepwise: %+v\nsuperblock: %+v", ref.Stats, got.Stats)
	}
	if ref.WallCycles != got.WallCycles {
		t.Fatalf("wall cycles: %d vs %d", ref.WallCycles, got.WallCycles)
	}

	// Observable channels.
	if len(ref.Outputs) != len(got.Outputs) {
		t.Fatalf("outputs: %v vs %v", ref.Outputs, got.Outputs)
	}
	for i := range ref.Outputs {
		if ref.Outputs[i] != got.Outputs[i] {
			t.Fatalf("outputs[%d]: %d vs %d", i, ref.Outputs[i], got.Outputs[i])
		}
	}
	if !bytes.Equal(ref.Log, got.Log) {
		t.Fatal("log bytes differ across dispatch modes")
	}
	if len(ref.NetOut) != len(got.NetOut) {
		t.Fatalf("net packets: %d vs %d", len(ref.NetOut), len(got.NetOut))
	}
	for i := range ref.NetOut {
		if !bytes.Equal(ref.NetOut[i], got.NetOut[i]) {
			t.Fatalf("net packet %d differs across dispatch modes", i)
		}
	}

	// Per-thread architectural state.
	if len(ref.Machine.Threads) != len(got.Machine.Threads) {
		t.Fatalf("thread count: %d vs %d", len(ref.Machine.Threads), len(got.Machine.Threads))
	}
	for i := range ref.Machine.Threads {
		a, b := ref.Machine.Threads[i], got.Machine.Threads[i]
		if a.Regs != b.Regs {
			t.Fatalf("thread %d registers:\nstepwise: %v\nsuperblock: %v", i, a.Regs, b.Regs)
		}
		for r := range a.FRegs {
			if math.Float64bits(a.FRegs[r]) != math.Float64bits(b.FRegs[r]) {
				t.Fatalf("thread %d xmm%d: %v vs %v", i, r, a.FRegs[r], b.FRegs[r])
			}
		}
		if a.PC != b.PC {
			t.Fatalf("thread %d PC: %#x vs %#x", i, a.PC, b.PC)
		}
		if a.ZF != b.ZF || a.SF != b.SF || a.CF != b.CF || a.OF != b.OF {
			t.Fatalf("thread %d flags differ", i)
		}
		if a.FS != b.FS || a.GS != b.GS || a.Bnd != b.Bnd {
			t.Fatalf("thread %d segment/bound state differs", i)
		}
		if a.Halted != b.Halted || a.ExitCode != b.ExitCode {
			t.Fatalf("thread %d halt state differs", i)
		}
		if a.Stats.Arch() != b.Stats.Arch() {
			t.Fatalf("thread %d stats:\nstepwise: %+v\nsuperblock: %+v", i, a.Stats, b.Stats)
		}
	}

	// The whole address space.
	if da, db := ref.Machine.Mem.Digest(), got.Machine.Mem.Digest(); da != db {
		t.Fatalf("memory digest: %#x vs %#x", da, db)
	}
}

// TestDifferentialWorkloads runs every bench program and the examples'
// quickstart binary under both dispatch modes across the paper's main
// configurations.
func TestDifferentialWorkloads(t *testing.T) {
	variants := []confllvm.Variant{confllvm.VariantBase, confllvm.VariantCFI,
		confllvm.VariantMPX, confllvm.VariantSeg}
	if testing.Short() {
		variants = []confllvm.Variant{confllvm.VariantMPX, confllvm.VariantSeg}
	}
	for _, wl := range bench.Workloads(true) {
		wl := wl
		for _, v := range variants {
			v := v
			t.Run(fmt.Sprintf("%s/%v", wl.Name, v), func(t *testing.T) {
				t.Parallel() // cells are independent machines; the artifact cache is singleflight
				art, err := bench.CompileCached(wl.Key, v, wl.Prog(v))
				if err != nil {
					t.Fatal(err)
				}
				res := diffRun(t, art, wl.World, nil)
				if res.Fault != nil {
					t.Fatalf("workload faulted (in both modes): %v", res.Fault)
				}
				if wl.Check != nil {
					if err := wl.Check(res); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}

// TestDifferentialVulns runs the §7.6 exploit programs — which fault or
// mis-read by design — under both modes: fault traces and attacker-
// observable channels must agree exactly.
func TestDifferentialVulns(t *testing.T) {
	secretFile := []byte("THE-PRIVATE-FILE-CONTENTS-ARE-SECRET")
	vulns := []struct {
		name  string
		src   string
		world func() *confllvm.World
	}{
		{"mongoose", bench.VulnMongooseSrc, func() *confllvm.World {
			w := confllvm.NewWorld()
			pf := make([]byte, 256)
			copy(pf, secretFile)
			w.PrivFiles["s"] = pf
			w.Files["p"] = []byte("public-file")
			w.Params = []int64{500}
			return w
		}},
		{"minizip", bench.VulnMinizipSrc, func() *confllvm.World {
			w := confllvm.NewWorld()
			w.Passwords["u"] = []byte("hunter2-hunter2-hunter2-hunter2")
			return w
		}},
		{"printf", bench.VulnPrintfSrc, func() *confllvm.World {
			w := confllvm.NewWorld()
			w.PrivIn[0] = []byte("0123456789abcdef")
			return w
		}},
	}
	variants := []confllvm.Variant{confllvm.VariantBase, confllvm.VariantMPX, confllvm.VariantSeg}
	for _, vu := range vulns {
		vu := vu
		for _, v := range variants {
			v := v
			t.Run(fmt.Sprintf("%s/%v", vu.name, v), func(t *testing.T) {
				t.Parallel()
				art, err := bench.CompileCached("vuln-"+vu.name, v, confllvm.Program{
					Sources: []confllvm.Source{
						{Name: vu.name + ".c", Code: vu.src},
						{Name: "ulib.c", Code: bench.ULib},
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				diffRun(t, art, vu.world, nil)
			})
		}
	}
}

// TestDifferentialFuelCutoff places the instruction-budget fault at
// arbitrary points inside superblocks: both modes must cut at the same
// instruction with identical partial state.
func TestDifferentialFuelCutoff(t *testing.T) {
	wl := bench.SPECWorkload(bench.SPECKernels()[0], bench.SPECKernels()[0].ShortParams)
	art, err := bench.CompileCached(wl.Key, confllvm.VariantMPX, wl.Prog(confllvm.VariantMPX))
	if err != nil {
		t.Fatal(err)
	}
	fuels := []uint64{2, 100, 1023, 1024, 1025, 5_000, 77_777}
	if testing.Short() {
		fuels = []uint64{100, 1025, 5_000}
	}
	for _, fuel := range fuels {
		fuel := fuel
		t.Run(fmt.Sprintf("fuel-%d", fuel), func(t *testing.T) {
			t.Parallel()
			mc := machine.DefaultConfig()
			mc.DefaultFuel = fuel
			res := diffRun(t, art, wl.World, &mc)
			if res.Fault == nil || res.Fault.Kind != machine.FaultFuel {
				t.Fatalf("want fuel fault, got %v", res.Fault)
			}
		})
	}
}
