package machine

import (
	"testing"

	"confllvm/internal/asm"
)

// profLoopMachine builds the BenchmarkRun loop program (iters ALU loop
// iterations, then exit) on a machine with the given config, optionally
// appending extra instructions after the loop in place of the exit.
func profLoopMachine(t *testing.T, conf Config, iters int64, tail []asm.Inst) (*Machine, *Thread) {
	t.Helper()
	m := New(conf)
	var code []byte
	code = asm.Encode(code, asm.Inst{Op: asm.OpMovRI, Dst: asm.RCX, Imm: iters})
	loopStart := 0x1000 + uint64(len(code))
	for _, in := range []asm.Inst{
		{Op: asm.OpMovRI, Dst: asm.RAX, Imm: 7},
		{Op: asm.OpAddRI, Dst: asm.RAX, Imm: 3},
		{Op: asm.OpMovRR, Dst: asm.RBX, Src: asm.RAX},
		{Op: asm.OpXorRR, Dst: asm.RDX, Src: asm.RBX},
		{Op: asm.OpMulRR, Dst: asm.RBX, Src: asm.RAX},
		{Op: asm.OpStore, M: asm.Mem{Base: asm.RDI, Index: asm.NoReg, Size: 8, Disp: 0x100000}, Src: asm.RBX},
		{Op: asm.OpLoad, Dst: asm.RSI, M: asm.Mem{Base: asm.RDI, Index: asm.NoReg, Size: 8, Disp: 0x100000}},
		{Op: asm.OpSubRI, Dst: asm.RCX, Imm: 1},
		{Op: asm.OpCmpRI, Dst: asm.RCX, Imm: 0},
	} {
		code = asm.Encode(code, in)
	}
	code = asm.Encode(code, asm.Inst{Op: asm.OpJcc, Cond: asm.CondNE, Imm: int64(loopStart)})
	for _, in := range tail {
		code = asm.Encode(code, in)
	}
	code = asm.Encode(code, asm.Inst{Op: asm.OpExit})
	if _, err := m.Mem.Map("code", 0x1000, 0x1000, PermR|PermX); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Mem.Map("data", 0x100000, 0x10000, PermR|PermW); err != nil {
		t.Fatal(err)
	}
	if f := m.Mem.WriteBytesUnchecked(0x1000, code); f != nil {
		t.Fatal(f)
	}
	th := m.NewThread(0x1000, 0x100000+0x8000, 0x100000, 0x100000+0x10000)
	return m, th
}

// modeConf is a named dispatch configuration.
type modeConf struct {
	name string
	conf Config
}

// dispatchConfs returns per-instruction stepping ("stepwise") and the
// default chained superblocks ("chained"), plus two block-dispatch
// variants that take other paths through the block executor and Run's
// bite loop. They keep the lane names of the dispatch modes they
// replaced:
//
//   - "superblock": the flat cost model (CacheModel off), so threads
//     carry no L1 and every block memory op takes memCost's no-cache path;
//   - "fused": an unmetered Run (DefaultFuel 0), so runBlocks neither
//     caps bites at the fuel tank nor counts it down.
func dispatchConfs() []modeConf {
	flat := DefaultConfig()
	flat.CacheModel = false
	unmetered := DefaultConfig()
	unmetered.DefaultFuel = 0
	return []modeConf{
		{"stepwise", stepwiseConf()},
		{"superblock", flat},
		{"chained", DefaultConfig()},
		{"fused", unmetered},
	}
}

// TestProfileConservation: with profiling on, the attributed cycle and
// instruction totals equal the thread's Stats exactly — in every dispatch
// mode, on clean exits and on faulting runs (the fault path charges
// cum[k-1]; its attribution must match).
func TestProfileConservation(t *testing.T) {
	for _, mode := range dispatchConfs() {
		for _, faulting := range []bool{false, true} {
			name := mode.name
			if faulting {
				name += "/fault"
			}
			t.Run(name, func(t *testing.T) {
				conf := mode.conf
				conf.Profile = true
				var tail []asm.Inst
				if faulting {
					// An unmapped load right after the loop: the run ends in
					// a mid-block fault, exercising the cum[k-1] charge path.
					tail = []asm.Inst{
						{Op: asm.OpAddRI, Dst: asm.RAX, Imm: 1},
						{Op: asm.OpLoad, Dst: asm.RAX, M: asm.Mem{Base: asm.NoReg, Index: asm.NoReg, Size: 8, Disp: 0x40}},
					}
				}
				m, th := profLoopMachine(t, conf, 50, tail)
				f := m.Run()
				if faulting && f == nil {
					t.Fatal("expected a fault")
				}
				if !faulting && f != nil {
					t.Fatalf("unexpected fault: %v", f)
				}
				prof := m.Profile()
				if prof == nil {
					t.Fatal("Conf.Profile set but Profile() == nil")
				}
				if got, want := prof.TotalCycles(), th.Stats.Cycles; got != want {
					t.Fatalf("profile cycles %d != Stats.Cycles %d", got, want)
				}
				if got, want := prof.TotalInstrs(), th.Stats.Instrs; got != want {
					t.Fatalf("profile instrs %d != Stats.Instrs %d", got, want)
				}
			})
		}
	}
}

// TestProfileStatsUnchanged: profiling is purely observational — every
// simulated result (Stats, registers, exit) is bit-identical with it on.
func TestProfileStatsUnchanged(t *testing.T) {
	for _, mode := range dispatchConfs() {
		t.Run(mode.name, func(t *testing.T) {
			run := func(profile bool) (*Machine, *Thread) {
				conf := mode.conf
				conf.Profile = profile
				m, th := profLoopMachine(t, conf, 50, nil)
				if f := m.Run(); f != nil {
					t.Fatalf("fault: %v", f)
				}
				return m, th
			}
			_, off := run(false)
			_, on := run(true)
			if off.Stats != on.Stats {
				t.Fatalf("profiling changed Stats: off=%+v on=%+v", off.Stats, on.Stats)
			}
			if off.Regs != on.Regs {
				t.Fatal("profiling changed register state")
			}
		})
	}
}

// TestProfileHandlerAttribution: a trusted-handler dispatch attributes its
// cycle delta (AddCycles charges included) to the handler's address, with
// zero instructions — matching Stats, which counts handlers in
// TrustedCall but not Instrs.
func TestProfileHandlerAttribution(t *testing.T) {
	for _, mode := range dispatchConfs() {
		t.Run(mode.name, func(t *testing.T) {
			conf := mode.conf
			conf.Profile = true
			m := New(conf)
			const hnd = uint64(0x9000)
			var code []byte
			code = asm.Encode(code, asm.Inst{Op: asm.OpCall, Imm: int64(hnd)})
			code = asm.Encode(code, asm.Inst{Op: asm.OpExit})
			if _, err := m.Mem.Map("code", 0x1000, 0x1000, PermR|PermX); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Mem.Map("data", 0x100000, 0x10000, PermR|PermW); err != nil {
				t.Fatal(err)
			}
			if f := m.Mem.WriteBytesUnchecked(0x1000, code); f != nil {
				t.Fatal(f)
			}
			m.Handlers[hnd] = func(m *Machine, th *Thread) *Fault {
				th.AddCycles(37)
				raddr, f := th.Pop()
				if f != nil {
					return f
				}
				th.PC = raddr
				return nil
			}
			th := m.NewThread(0x1000, 0x100000+0x8000, 0x100000, 0x100000+0x10000)
			if f := m.Run(); f != nil {
				t.Fatalf("fault: %v", f)
			}
			cells := m.Profile().Cells()
			hc, ok := cells[hnd]
			if !ok {
				t.Fatalf("no profile cell at handler address %#x (cells: %v)", hnd, cells)
			}
			if hc.Instrs != 0 || hc.Hits != 1 {
				t.Fatalf("handler cell = %+v, want Instrs 0, Hits 1", hc)
			}
			// The pop's Read is free (no memCost outside execRun); the delta
			// is exactly the AddCycles charge.
			if hc.Cycles != 37 {
				t.Fatalf("handler cell cycles = %d, want 37", hc.Cycles)
			}
			if got, want := m.Profile().TotalCycles(), th.Stats.Cycles; got != want {
				t.Fatalf("profile cycles %d != Stats.Cycles %d", got, want)
			}
		})
	}
}

// TestRunProfileDisabledZeroAlloc pins the disabled path's cost: after
// warmup (traces and blocks built), re-running the loop program with
// profiling off performs zero allocations. This is the acceptance bar for
// shipping the hooks inside the hot dispatch loop.
func TestRunProfileDisabledZeroAlloc(t *testing.T) {
	for _, mode := range dispatchConfs() {
		if !mode.conf.Superblocks {
			continue // stepping re-dispatches per instruction; not the pinned path
		}
		t.Run(mode.name, func(t *testing.T) {
			conf := mode.conf
			m, th := profLoopMachine(t, conf, 200, nil)
			reset := func() {
				th.Halted = false
				th.Fault = nil
				th.PC = 0x1000
			}
			if f := m.Run(); f != nil {
				t.Fatalf("warmup fault: %v", f)
			}
			allocs := testing.AllocsPerRun(10, func() {
				reset()
				if f := m.Run(); f != nil {
					t.Fatalf("fault: %v", f)
				}
			})
			if allocs != 0 {
				t.Fatalf("Run with profiling disabled allocates %.1f objects per run, want 0", allocs)
			}
		})
	}
}
