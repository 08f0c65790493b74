package bench

import (
	"reflect"
	"strings"
	"testing"

	"confllvm"
	"confllvm/internal/asm"
	"confllvm/internal/machine"
	"confllvm/internal/scenario"
)

// tamperOpcode is the byte planted on main's entry in the gate test.
const tamperOpcode = byte(asm.OpSyscall)

// superviseKV runs the short KV scenario under a supervisor with the
// given fault rate and machine config.
func superviseKV(t *testing.T, rate uint64, mconf *machine.Config) *ServeReport {
	t.Helper()
	spec := scenario.DefaultKV(true)
	wl := KVWorkload(spec)
	wire, _, err := scenario.Traffic(spec)
	if err != nil {
		t.Fatal(err)
	}
	pol := DefaultFaultPolicy(1234, rate)
	rep, err := Supervise(wl.Key, wl.Prog(confllvm.VariantMPX), confllvm.VariantMPX, wire, mconf, pol)
	if err != nil {
		t.Fatalf("Supervise: %v", err)
	}
	return rep
}

// TestSupervisedServingCleanRun: at fault rate zero the supervisor is
// transparent — every request served across the planned recycling
// epochs, no restarts, no backoff.
func TestSupervisedServingCleanRun(t *testing.T) {
	rep := superviseKV(t, 0, nil)
	batch := DefaultFaultPolicy(0, 0).BatchRequests
	wantEpochs := (rep.Total + batch - 1) / batch
	if rep.Served != rep.Total || rep.Restarts != 0 || rep.Epochs != wantEpochs || rep.BackoffCycles != 0 {
		t.Fatalf("clean run not transparent (want %d epochs): %+v", wantEpochs, rep)
	}
	if rep.AvailabilityPct() != 100 {
		t.Fatalf("availability = %v, want 100", rep.AvailabilityPct())
	}
}

// TestSupervisedServingDegradesGracefully: at a heavy fault rate the
// supervisor keeps serving (availability strictly between 0 and 100),
// restarts with populated recovery latencies, and accounts for every
// request exactly once.
func TestSupervisedServingDegradesGracefully(t *testing.T) {
	rep := superviseKV(t, 400, nil)
	avail := rep.AvailabilityPct()
	if avail <= 0 || avail >= 100 {
		t.Fatalf("availability = %v, want 0 < a < 100 (%+v)", avail, rep)
	}
	if rep.Restarts == 0 || len(rep.Recoveries) == 0 || rep.RecoveryMean() == 0 {
		t.Fatalf("faults injected but no recoveries recorded: %+v", rep)
	}
	if got := rep.Served + rep.Rejected + rep.Shed; got != rep.Total {
		t.Fatalf("request accounting leak: served %d + rejected %d + shed %d != total %d",
			rep.Served, rep.Rejected, rep.Shed, rep.Total)
	}
	if rep.ServedPerSec() == 0 {
		t.Fatalf("throughput column empty: %+v", rep)
	}
}

// TestSupervisedServingModeInvariant: the ServeReport is a simulated
// quantity — byte-identical across per-instruction stepping and chained
// superblock dispatch, and across repeated runs.
func TestSupervisedServingModeInvariant(t *testing.T) {
	step := machine.DefaultConfig()
	step.Superblocks = false
	chained := machine.DefaultConfig()

	ref := superviseKV(t, 300, &step)
	for name, mc := range map[string]*machine.Config{
		"chained": &chained, "stepping-again": &step,
	} {
		if got := superviseKV(t, 300, mc); !reflect.DeepEqual(ref, got) {
			t.Errorf("%s diverged from stepping:\n  ref %+v\n  got %+v", name, ref, got)
		}
	}
}

// TestSupervisorVerifyGateCountsTampering: with tampering forced every
// epoch, the gate rejects the tampered image every time and serving
// still completes.
func TestSupervisorVerifyGateCountsTampering(t *testing.T) {
	spec := scenario.DefaultKV(true)
	wl := KVWorkload(spec)
	wire, _, err := scenario.Traffic(spec)
	if err != nil {
		t.Fatal(err)
	}
	pol := DefaultFaultPolicy(1, 0)
	pol.Injector.TamperPermille = 1000
	rep, err := Supervise(wl.Key, wl.Prog(confllvm.VariantMPX), confllvm.VariantMPX, wire, nil, pol)
	if err != nil {
		t.Fatalf("Supervise: %v", err)
	}
	if rep.VerifyRejections != rep.Epochs || rep.VerifyRejections == 0 {
		t.Fatalf("want one gate rejection per epoch, got %d/%d", rep.VerifyRejections, rep.Epochs)
	}
	if rep.Served != rep.Total {
		t.Fatalf("gate rejections must not cost availability: %+v", rep)
	}
}

// TestTamperedBinaryNeverExecutes is the load-gate acceptance test: a
// compiler that emits a tampered binary is stopped at CompileCached's
// verify-before-load gate — the binary is rejected before any machine is
// built, so it never executes. Running the same tampered image with the
// gate bypassed demonstrates what the gate prevented: the planted
// syscall faults at first execution.
func TestTamperedBinaryNeverExecutes(t *testing.T) {
	spec := scenario.DefaultKV(true)
	wl := KVWorkload(spec)
	prog := wl.Prog(confllvm.VariantMPX)

	orig := compileFn
	defer func() { compileFn = orig }()
	var tampered *confllvm.Artifact
	compileFn = func(p confllvm.Program, v confllvm.Variant) (*confllvm.Artifact, error) {
		art, err := confllvm.Compile(p, v)
		if err != nil {
			return nil, err
		}
		// Plant a syscall on main's entry instruction — always reachable,
		// so the verifier must flag it and execution must trip on it.
		img := art.Image
		code := append([]byte(nil), img.Code...)
		code[img.Func("main").Entry-img.Layout.CodeBase] = tamperOpcode
		mut := *img
		mut.Code = code
		art.Image = &mut
		tampered = art
		return art, nil
	}

	// Unique key: must not collide with the shared artifact cache.
	_, err := CompileCached("kv-tampered-gate", confllvm.VariantMPX, prog)
	if err == nil || !strings.Contains(err.Error(), "verify-before-load") {
		t.Fatalf("gate did not reject tampered binary: %v", err)
	}

	// The whole supervised path refuses it too — no machine runs.
	wire, _, _ := scenario.Traffic(spec)
	if _, err := Supervise("kv-tampered-gate", prog, confllvm.VariantMPX, wire, nil,
		DefaultFaultPolicy(1, 0)); err == nil {
		t.Fatal("Supervise executed a tampered binary")
	}

	// What the gate prevented: executed anyway, the tampering faults.
	w := confllvm.NewWorld()
	w.Params = []int64{int64(len(wire))}
	w.NetIn = wire
	res, err := confllvm.Run(tampered, w, nil)
	if err != nil {
		t.Fatalf("bypass run: %v", err)
	}
	if res.Fault == nil {
		t.Fatal("tampered binary ran to completion — tampering was not execution-visible")
	}
}
