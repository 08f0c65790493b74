package machine

import (
	"fmt"
	"math"

	"confllvm/internal/asm"
)

// BndRange is an MPX bound register: a [Lo, Hi] closed interval.
type BndRange struct {
	Lo uint64
	Hi uint64
}

// Stats counts architectural and micro-architectural events per thread.
type Stats struct {
	Instrs      uint64
	Cycles      uint64
	Loads       uint64
	Stores      uint64
	BndChecks   uint64
	BndMasked   uint64 // bound checks hidden behind FP work
	CacheMisses uint64
	TrustedCall uint64 // transitions into T handlers

	// FusedSlots and Defuses are always zero: the interpreter no longer
	// fuses superinstructions. They are kept because perfbench/metrics.go
	// reads them.
	FusedSlots uint64
	Defuses    uint64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Instrs += other.Instrs
	s.Cycles += other.Cycles
	s.Loads += other.Loads
	s.Stores += other.Stores
	s.BndChecks += other.BndChecks
	s.BndMasked += other.BndMasked
	s.CacheMisses += other.CacheMisses
	s.TrustedCall += other.TrustedCall
	s.FusedSlots += other.FusedSlots
	s.Defuses += other.Defuses
}

// Arch returns the counters that must be bit-identical between
// per-instruction stepping and block dispatch. Every field qualifies
// (FusedSlots and Defuses are always zero), so Arch returns s unchanged;
// it stays the name cross-mode comparisons use.
func (s Stats) Arch() Stats { return s }

// Thread is a hardware execution context (one per simulated core thread).
type Thread struct {
	ID    int
	Regs  [asm.NumRegs]uint64
	FRegs [asm.NumFRegs]float64
	PC    uint64

	// Flags.
	ZF, SF, CF, OF bool

	// Segment bases (4 GB-aligned in the segmentation scheme).
	FS, GS uint64

	// MPX bound registers.
	Bnd [2]BndRange

	// Thread stack bounds enforced by chksp ([_chkstk] analogue).
	StackLo, StackHi uint64

	Halted   bool
	ExitCode uint64
	Fault    *Fault

	Stats    Stats
	fpCredit int
	l1       *cache

	m *Machine
}

// Handler is a trusted-runtime entry point implemented on the host. When a
// thread's pc reaches the handler's address, the machine invokes it instead
// of fetching. Handlers model T code compiled by a vanilla compiler: they
// may access all memory and must set the thread's pc before returning (by
// performing the return sequence of the active configuration).
type Handler func(m *Machine, t *Thread) *Fault

// Config tunes the cost model.
type Config struct {
	Cores        int    // hardware cores for wall-clock estimation
	CacheModel   bool   // model L1D hit/miss
	MissPenalty  uint64 // cycles per L1D miss
	FPMaskDepth  int    // bound checks maskable behind each FP op window
	DefaultFuel  uint64 // instruction budget per Run call (0 = no limit)
	TrustedCost  uint64 // cycles charged for a U->T->U transition (wrapper)
	TrustedCost1 uint64 // same, when U and T share memory (Our1Mem)

	// Superblocks makes Run dispatch once per basic block instead of once
	// per instruction: straight-line decoded instructions are grouped into
	// superblocks (see superblock.go) executed by a tight handler loop,
	// and a block ending in a direct jmp or jcc chains to its successor.
	// Architectural results — registers, memory, cycle counts, fault PCs
	// and messages — are bit-identical to per-instruction stepping; the
	// differential tests in diff_test.go enforce this. Thread.Step always
	// executes a single instruction regardless of this flag.
	Superblocks bool

	// Profile enables cycle-attributed profiling: the machine carries a
	// Profile (see profile.go) charging each superblock's cycle delta to
	// its entry PC and each trusted-handler dispatch to the handler
	// address. Purely observational — no simulated result changes — and
	// free when off (one nil check per block, zero allocations).
	Profile bool
}

// DefaultConfig returns the calibrated default cost model.
func DefaultConfig() Config {
	return Config{
		Cores:        4,
		CacheModel:   true,
		MissPenalty:  14,
		FPMaskDepth:  2,
		DefaultFuel:  2_000_000_000,
		TrustedCost:  40,
		TrustedCost1: 8,
		Superblocks:  true,
	}
}

// Machine is the whole simulated machine: memory, threads, trusted-runtime
// handlers and the cost model.
type Machine struct {
	Mem      *Memory
	Threads  []*Thread
	Handlers map[uint64]Handler
	Conf     Config

	fuel uint64

	// traces holds one decoded-trace cache per executable region (see
	// trace.go); lastTrace memoizes the region the PC last executed in.
	traces    []*codeTrace
	lastTrace *codeTrace

	// Handler address range, recomputed whenever len(Handlers) changes:
	// Step only probes the Handlers map when the PC falls inside
	// [hndLo, hndHi]. Empty map: hndLo > hndHi, so the test never passes.
	hndLo, hndHi uint64
	nHandlers    int

	// prof is non-nil when Conf.Profile is set (see profile.go).
	prof *Profile
}

// Profile returns the machine's cycle-attribution profile, or nil when
// Conf.Profile is off.
func (m *Machine) Profile() *Profile { return m.prof }

// New creates a machine with the given configuration.
func New(conf Config) *Machine {
	if conf.Cores <= 0 {
		conf.Cores = 1
	}
	m := &Machine{
		Mem:      NewMemory(),
		Handlers: make(map[uint64]Handler),
		Conf:     conf,
		hndLo:    ^uint64(0),
	}
	m.Mem.onUncheckedWrite = m.flushTraces
	if conf.Profile {
		m.prof = NewProfile()
	}
	return m
}

// RefreshHandlers re-indexes the Handlers map. Adding or removing a
// handler is detected automatically (the map's size changes), and Run
// re-indexes on entry; call this only when replacing same-count handler
// sets at new addresses between direct Step calls.
func (m *Machine) RefreshHandlers() { m.rebuildHandlerIndex() }

// rebuildHandlerIndex recomputes the [hndLo, hndHi] PC range covering all
// registered trusted handlers. When the range changes, superblock metadata
// is flushed: blocks are built to never span a PC inside the handler
// range, so a changed range may invalidate existing block boundaries (the
// decoded instructions themselves stay valid — handler-set changes move
// dispatch points, not code bytes).
func (m *Machine) rebuildHandlerIndex() {
	oldLo, oldHi, oldN := m.hndLo, m.hndHi, m.nHandlers
	m.nHandlers = len(m.Handlers)
	m.hndLo, m.hndHi = ^uint64(0), 0
	for a := range m.Handlers {
		if a < m.hndLo {
			m.hndLo = a
		}
		if a > m.hndHi {
			m.hndHi = a
		}
	}
	if m.hndLo != oldLo || m.hndHi != oldHi || m.nHandlers != oldN {
		m.flushBlocks()
	}
}

// NewThread creates a thread starting at pc with the given stack pointer
// and stack bounds.
func (m *Machine) NewThread(pc, rsp, stackLo, stackHi uint64) *Thread {
	t := &Thread{ID: len(m.Threads), PC: pc, StackLo: stackLo, StackHi: stackHi, m: m}
	t.Regs[asm.RSP] = rsp
	if m.Conf.CacheModel {
		t.l1 = newCache()
	}
	m.Threads = append(m.Threads, t)
	return t
}

// fault halts the thread with a fault at the current pc, stamping the
// fault with the thread's simulated cycle count. Every fault delivery in
// every dispatch mode funnels through here (execRun, stepBlocks, the fuel
// discipline in Run/runBlocks, and handler faults in Step), and the
// callers all write back their cycle accounting before calling, so the
// stamp is bit-identical across stepping, superblock and chained dispatch.
func (t *Thread) fault(f *Fault) *Fault {
	f.PC = t.PC
	f.Cycle = t.Stats.Cycles
	t.Fault = f
	t.Halted = true
	return f
}

// AddCycles charges the thread extra cycles (used by trusted handlers).
func (t *Thread) AddCycles(n uint64) { t.Stats.Cycles += n }

// Push pushes an 8-byte value onto the thread's stack.
func (t *Thread) Push(val uint64) *Fault {
	t.Regs[asm.RSP] -= 8
	return t.m.Mem.Write(t.Regs[asm.RSP], 8, val)
}

// Pop pops an 8-byte value from the thread's stack.
func (t *Thread) Pop() (uint64, *Fault) {
	v, f := t.m.Mem.Read(t.Regs[asm.RSP], 8)
	if f != nil {
		return 0, f
	}
	t.Regs[asm.RSP] += 8
	return v, nil
}

// EA computes the effective address of a memory operand for this thread,
// applying segment bases and the 32-bit operand constraint of the
// segmentation scheme.
func (t *Thread) EA(m asm.Mem) uint64 { return t.ea(&m, true) }

// ea is the pointer form of EA used by the dispatch loop: it avoids
// copying the operand out of the decode trace. useSeg=false computes the
// raw address without the segment base (lea and the bndcl/bndcu memory
// forms, as on x64).
func (t *Thread) ea(m *asm.Mem, useSeg bool) uint64 {
	var base, index uint64
	if m.Base != asm.NoReg {
		base = t.Regs[m.Base]
	}
	if m.Index != asm.NoReg {
		index = t.Regs[m.Index]
	}
	if m.Use32 {
		base = uint64(uint32(base))
		index = uint64(uint32(index))
	}
	scale := uint64(m.Scale)
	if scale == 0 {
		scale = 1
	}
	ea := base + index*scale + uint64(int64(m.Disp))
	if useSeg {
		switch m.Seg {
		case asm.SegFS:
			ea += t.FS
		case asm.SegGS:
			ea += t.GS
		}
	}
	return ea
}

func (t *Thread) memCost(addr uint64) uint64 {
	if t.l1 == nil {
		return 0
	}
	if t.l1.access(addr) {
		return 0
	}
	t.Stats.CacheMisses++
	return t.m.Conf.MissPenalty
}

func (t *Thread) setCmpFlags(a, b uint64) {
	d := a - b
	t.ZF = d == 0
	t.SF = int64(d) < 0
	t.CF = a < b
	// Signed overflow of a - b.
	t.OF = (int64(a) < 0) != (int64(b) < 0) && (int64(d) < 0) != (int64(a) < 0)
}

func (t *Thread) setTestFlags(v uint64) {
	t.ZF = v == 0
	t.SF = int64(v) < 0
	t.CF = false
	t.OF = false
}

func (t *Thread) condTrue(c asm.Cond) bool {
	switch c {
	case asm.CondE:
		return t.ZF
	case asm.CondNE:
		return !t.ZF
	case asm.CondL:
		return t.SF != t.OF
	case asm.CondLE:
		return t.ZF || t.SF != t.OF
	case asm.CondG:
		return !t.ZF && t.SF == t.OF
	case asm.CondGE:
		return t.SF == t.OF
	case asm.CondB:
		return t.CF
	case asm.CondBE:
		return t.CF || t.ZF
	case asm.CondA:
		return !t.CF && !t.ZF
	case asm.CondAE:
		return !t.CF
	case asm.CondS:
		return t.SF
	case asm.CondNS:
		return !t.SF
	}
	return false
}

// extend narrows v to size bytes and zero- or sign-extends back to 64 bits.
func extend(v uint64, size uint8, signed bool) uint64 {
	switch size {
	case 1:
		if signed {
			return uint64(int64(int8(v)))
		}
		return uint64(uint8(v))
	case 2:
		if signed {
			return uint64(int64(int16(v)))
		}
		return uint64(uint16(v))
	case 4:
		if signed {
			return uint64(int64(int32(v)))
		}
		return uint64(uint32(v))
	}
	return v
}

// Step executes one instruction (or one trusted handler) on thread t.
// It returns a fault if the thread faulted. Step always executes exactly
// one instruction regardless of Config.Superblocks: it is the reference
// the superblock dispatcher is differentially tested against.
func (t *Thread) Step() *Fault {
	m := t.m
	if t.Halted {
		return t.Fault
	}
	// Trusted-handler dispatch, hoisted behind a cheap PC-range test: the
	// map is only probed when the PC falls inside the handler address
	// range (handlers live in the T region, far from any U code).
	if len(m.Handlers) != m.nHandlers {
		m.rebuildHandlerIndex()
	}
	if t.PC >= m.hndLo && t.PC <= m.hndHi {
		if h, ok := m.Handlers[t.PC]; ok {
			t.Stats.TrustedCall++
			// Capture the handler address and cycle count before the call:
			// the handler performs the return sequence (moving t.PC) and
			// charges its transition cost, and the profile attributes that
			// delta to the handler's own address.
			hpc, c0 := t.PC, t.Stats.Cycles
			f := h(m, t)
			if prof := m.prof; prof != nil {
				prof.add(hpc, t.Stats.Cycles-c0, 0)
			}
			if f != nil {
				return t.fault(f)
			}
			return nil
		}
	}

	// Execute the flattened run entered at the current PC through the
	// shared engine. A run already cached by block dispatch is reused
	// (slot 0, budget 1); a miss builds a one-slot run, so stepping
	// through a long straight-line stretch stays linear instead of
	// piling up overlapping suffix runs. Either way Step and block
	// dispatch share one executor, one run cache, and one fault path.
	tr := m.lastTrace
	if tr == nil || t.PC-tr.lo >= tr.size {
		var f *Fault
		if tr, f = m.traceFor(t.PC); f != nil {
			return t.fault(f)
		}
		m.lastTrace = tr
	}
	off := t.PC - tr.lo
	run := tr.runs[off]
	if run == nil {
		var f *Fault
		if run, f = tr.buildBlock(m, off, 1); f != nil {
			return t.fault(f)
		}
	}
	_, f := t.execRun(run, tr, 1)
	return f
}

// execRun executes up to max instructions starting at run's entry slot,
// then — with budget remaining — follows the run's cached successor
// links (resolving them on first use) so hot loops execute
// run-to-run without returning through the dispatcher. Every run is a
// flattened superblock (see superblock.go): slot k's instruction is
// insts[k], its PC is pcs[k] and its fall-through PC is pcs[k+1], so the
// interior pays no lens[] walk — in fact no per-instruction PC work at
// all: only control-flow ops consult pcs, a faulting instruction's PC is
// reconstructed from its slot index (run.pcs[k-1]) after the loop, and
// the resume PC of a completed run is either the terminator's redirect
// or the fall-through pcs[k].
//
// The instruction count is recovered from the slot count on exit and the
// Cycles counter is kept in a local, written back only on exit, so
// neither block interiors nor chained block boundaries pay
// per-instruction (or per-block) bookkeeping. All architectural effects
// — register updates, memory accesses, flag math, per-op costs, fault
// kinds/addresses/messages and the PC left behind on a fault or exit —
// are identical to stepping one instruction at a time; the faulting
// instruction counts toward Instrs (but not Cycles), as it always has.
//
// Returns the number of instructions charged, including a faulting one.
func (t *Thread) execRun(run *blockRun, tr *codeTrace, max int) (int, *Fault) {
	if max <= 0 {
		return 0, nil
	}
	var fault *Fault
	var nextPC uint64
	done := 0
	k := 0
	prof := t.m.prof
	var profC0 uint64
chained:
	for {
		if prof != nil {
			profC0 = t.Stats.Cycles
		}
		nb := run.n
		if rem := max - done; nb > rem {
			nb = rem
		}
		insts := run.insts[:nb]
		k = 0
	loop:
		for k < len(insts) {
			ip := &insts[k]
			k++
			// Static per-op base costs are precomputed into run.cum (a
			// prefix sum charged once per block below); the cases only add
			// the dynamic components — cache-miss penalties and FP-masked
			// bound checks — that depend on machine state.
			switch ip.Op {
			case asm.OpNop:
			case asm.OpMovRR:
				t.Regs[ip.Dst] = t.Regs[ip.Src]
			case asm.OpMovRI:
				t.Regs[ip.Dst] = uint64(ip.Imm)
			case asm.OpLea:
				// lea computes the raw address without the segment base (as x64).
				t.Regs[ip.Dst] = t.ea(&ip.M, false)
			case asm.OpLoad:
				addr := t.ea(&ip.M, true)
				v, f := t.m.Mem.Read(addr, ip.M.Size)
				if f != nil {
					fault = f
					break loop
				}
				t.Regs[ip.Dst] = extend(v, ip.M.Size, ip.M.Signed)
				t.Stats.Loads++
				t.Stats.Cycles += t.memCost(addr)
			case asm.OpStore:
				addr := t.ea(&ip.M, true)
				if f := t.m.Mem.Write(addr, ip.M.Size, t.Regs[ip.Src]); f != nil {
					fault = f
					break loop
				}
				t.Stats.Stores++
				t.Stats.Cycles += t.memCost(addr)
			case asm.OpPush:
				if f := t.Push(t.Regs[ip.Src]); f != nil {
					fault = f
					break loop
				}
				t.Stats.Stores++
				t.Stats.Cycles += t.memCost(t.Regs[asm.RSP])
			case asm.OpPop:
				v, f := t.Pop()
				if f != nil {
					fault = f
					break loop
				}
				t.Regs[ip.Dst] = v
				t.Stats.Loads++
				t.Stats.Cycles += t.memCost(t.Regs[asm.RSP] - 8)

			case asm.OpAddRR:
				t.Regs[ip.Dst] += t.Regs[ip.Src]
			case asm.OpAddRI:
				t.Regs[ip.Dst] += uint64(ip.Imm)
			case asm.OpSubRR:
				t.Regs[ip.Dst] -= t.Regs[ip.Src]
			case asm.OpSubRI:
				t.Regs[ip.Dst] -= uint64(ip.Imm)
			case asm.OpMulRR:
				t.Regs[ip.Dst] = uint64(int64(t.Regs[ip.Dst]) * int64(t.Regs[ip.Src]))
			case asm.OpMulRI:
				t.Regs[ip.Dst] = uint64(int64(t.Regs[ip.Dst]) * ip.Imm)
			case asm.OpDivRR:
				d := int64(t.Regs[ip.Src])
				n := int64(t.Regs[ip.Dst])
				if d == 0 || (d == -1 && n == math.MinInt64) {
					// x64 #DE covers both divide-by-zero and quotient overflow
					// (INT64_MIN / -1). Go itself defines the overflow case to
					// wrap, which is what the interpreter used to do — faulting
					// instead matches the modeled hardware.
					fault = &Fault{Kind: FaultDivide}
					break loop
				}
				t.Regs[ip.Dst] = uint64(n / d)
			case asm.OpModRR:
				d := int64(t.Regs[ip.Src])
				n := int64(t.Regs[ip.Dst])
				if d == 0 || (d == -1 && n == math.MinInt64) {
					fault = &Fault{Kind: FaultDivide}
					break loop
				}
				t.Regs[ip.Dst] = uint64(n % d)
			case asm.OpAndRR:
				t.Regs[ip.Dst] &= t.Regs[ip.Src]
			case asm.OpAndRI:
				t.Regs[ip.Dst] &= uint64(ip.Imm)
			case asm.OpOrRR:
				t.Regs[ip.Dst] |= t.Regs[ip.Src]
			case asm.OpOrRI:
				t.Regs[ip.Dst] |= uint64(ip.Imm)
			case asm.OpXorRR:
				t.Regs[ip.Dst] ^= t.Regs[ip.Src]
			case asm.OpXorRI:
				t.Regs[ip.Dst] ^= uint64(ip.Imm)
			case asm.OpShlRR:
				t.Regs[ip.Dst] <<= t.Regs[ip.Src] & 63
			case asm.OpShlRI:
				t.Regs[ip.Dst] <<= uint64(ip.Imm) & 63
			case asm.OpShrRR:
				t.Regs[ip.Dst] >>= t.Regs[ip.Src] & 63
			case asm.OpShrRI:
				t.Regs[ip.Dst] >>= uint64(ip.Imm) & 63
			case asm.OpSarRR:
				t.Regs[ip.Dst] = uint64(int64(t.Regs[ip.Dst]) >> (t.Regs[ip.Src] & 63))
			case asm.OpSarRI:
				t.Regs[ip.Dst] = uint64(int64(t.Regs[ip.Dst]) >> (uint64(ip.Imm) & 63))
			case asm.OpNeg:
				t.Regs[ip.Dst] = -t.Regs[ip.Dst]
			case asm.OpNot:
				t.Regs[ip.Dst] = ^t.Regs[ip.Dst]

			case asm.OpCmpRR:
				t.setCmpFlags(t.Regs[ip.Dst], t.Regs[ip.Src])
			case asm.OpCmpRI:
				t.setCmpFlags(t.Regs[ip.Dst], uint64(ip.Imm))
			case asm.OpCmpMR:
				addr := t.ea(&ip.M, true)
				v, f := t.m.Mem.Read(addr, 8)
				if f != nil {
					fault = f
					break loop
				}
				t.setCmpFlags(v, t.Regs[ip.Src])
				t.Stats.Loads++
				t.Stats.Cycles += t.memCost(addr)
			case asm.OpTestRR:
				t.setTestFlags(t.Regs[ip.Dst] & t.Regs[ip.Src])
			case asm.OpTestRI:
				t.setTestFlags(t.Regs[ip.Dst] & uint64(ip.Imm))
			case asm.OpSetCC:
				if t.condTrue(ip.Cond) {
					t.Regs[ip.Dst] = 1
				} else {
					t.Regs[ip.Dst] = 0
				}

			case asm.OpJmp:
				nextPC = uint64(ip.Imm)
			case asm.OpJcc:
				if t.condTrue(ip.Cond) {
					nextPC = uint64(ip.Imm)
				} else {
					nextPC = run.pcs[k]
				}
			case asm.OpJmpR:
				nextPC = t.Regs[ip.Src]
			case asm.OpCall:
				if f := t.Push(run.pcs[k]); f != nil {
					fault = f
					break loop
				}
				t.Stats.Cycles += t.memCost(t.Regs[asm.RSP])
				nextPC = uint64(ip.Imm)
			case asm.OpICall:
				if f := t.Push(run.pcs[k]); f != nil {
					fault = f
					break loop
				}
				t.Stats.Cycles += t.memCost(t.Regs[asm.RSP])
				nextPC = t.Regs[ip.Src]
			case asm.OpRet:
				v, f := t.Pop()
				if f != nil {
					fault = f
					break loop
				}
				t.Stats.Cycles += t.memCost(t.Regs[asm.RSP] - 8)
				nextPC = v
			case asm.OpTrap:
				fault = &Fault{Kind: FaultCFI, Msg: "trap"}
				break loop
			case asm.OpExit:
				t.Halted = true
				t.ExitCode = t.Regs[asm.RetReg]
				t.PC = run.pcs[k-1]
				break loop

			case asm.OpBndCLMem, asm.OpBndCUMem, asm.OpBndCLReg, asm.OpBndCUReg:
				if f := t.bndCheck(ip); f != nil {
					fault = f
					break loop
				}

			case asm.OpChkSP:
				sp := t.Regs[asm.RSP]
				if sp < t.StackLo || sp > t.StackHi {
					fault = &Fault{Kind: FaultStack, Addr: sp,
						Msg: fmt.Sprintf("rsp outside [%#x,%#x]", t.StackLo, t.StackHi)}
					break loop
				}

			case asm.OpFLoad:
				addr := t.ea(&ip.M, true)
				v, f := t.m.Mem.Read(addr, 8)
				if f != nil {
					fault = f
					break loop
				}
				t.FRegs[ip.FDst] = math.Float64frombits(v)
				t.Stats.Loads++
				t.Stats.Cycles += t.memCost(addr)
				t.grantFPCredit()
			case asm.OpFStore:
				addr := t.ea(&ip.M, true)
				if f := t.m.Mem.Write(addr, 8, math.Float64bits(t.FRegs[ip.FSrc])); f != nil {
					fault = f
					break loop
				}
				t.Stats.Stores++
				t.Stats.Cycles += t.memCost(addr)
				t.grantFPCredit()
			case asm.OpFMovRR:
				t.FRegs[ip.FDst] = t.FRegs[ip.FSrc]
			case asm.OpFMovI:
				t.FRegs[ip.FDst] = math.Float64frombits(uint64(ip.Imm))
			case asm.OpFAdd:
				t.FRegs[ip.FDst] += t.FRegs[ip.FSrc]
				t.grantFPCredit()
			case asm.OpFSub:
				t.FRegs[ip.FDst] -= t.FRegs[ip.FSrc]
				t.grantFPCredit()
			case asm.OpFMul:
				t.FRegs[ip.FDst] *= t.FRegs[ip.FSrc]
				t.grantFPCredit()
			case asm.OpFDiv:
				t.FRegs[ip.FDst] /= t.FRegs[ip.FSrc]
				t.grantFPCredit()
			case asm.OpFMax:
				if t.FRegs[ip.FSrc] > t.FRegs[ip.FDst] {
					t.FRegs[ip.FDst] = t.FRegs[ip.FSrc]
				}
				t.grantFPCredit()
			case asm.OpFCmp:
				a, b := t.FRegs[ip.FDst], t.FRegs[ip.FSrc]
				if math.IsNaN(a) || math.IsNaN(b) {
					t.ZF, t.CF = true, true // x64 unordered result
				} else {
					t.ZF = a == b
					t.CF = a < b
				}
				t.SF, t.OF = false, false
				t.grantFPCredit()
			case asm.OpCvtIF:
				t.FRegs[ip.FDst] = float64(int64(t.Regs[ip.Src]))
			case asm.OpCvtFI:
				t.Regs[ip.Dst] = uint64(int64(t.FRegs[ip.FSrc]))
			case asm.OpMovQIF:
				t.FRegs[ip.FDst] = math.Float64frombits(t.Regs[ip.Src])
			case asm.OpMovQFI:
				t.Regs[ip.Dst] = math.Float64bits(t.FRegs[ip.FSrc])

			case asm.OpWrFS:
				t.FS = t.Regs[ip.Src]
			case asm.OpWrGS:
				t.GS = t.Regs[ip.Src]
			case asm.OpSyscall:
				fault = &Fault{Kind: FaultPerm, Msg: "syscall from untrusted code"}
				break loop

			default:
				fault = &Fault{Kind: FaultDecode, Msg: "unimplemented opcode " + ip.Op.String()}
				break loop
			}
		}

		done += k
		if fault != nil {
			// Charge the static costs of the slots before the faulting one:
			// a faulting instruction counts toward Instrs but not Cycles,
			// as it always has.
			t.Stats.Cycles += uint64(run.cum[k-1])
			if prof != nil {
				prof.add(run.pcs[0], t.Stats.Cycles-profC0, uint64(k))
			}
			break chained
		}
		// cum[k] includes a halting exit's own cost; dynamic components
		// (cache misses, FP masking) were added inline by the cases.
		t.Stats.Cycles += uint64(run.cum[k])
		if prof != nil {
			// Attribute the block's cycle delta — the static cum[] charge
			// plus every dynamic component the cases added — to its entry
			// PC, and its executed slot count to Instrs. Summed over a run
			// this conserves Stats exactly (see profile.go).
			prof.add(run.pcs[0], t.Stats.Cycles-profC0, uint64(k))
		}
		if t.Halted || k < run.n || done >= max {
			break chained
		}
		// The whole block completed with budget left: follow (or resolve
		// and cache) the chain link its terminator selected. nextPC is the
		// PC the terminator produced, so a jcc picks its taken edge iff
		// nextPC matches the branch target. A nil link — different trace,
		// potential trusted-handler PC, or an undecodable entry — falls
		// back to the dispatcher, which re-probes everything chaining
		// skips and delivers any fetch fault with stepping-identical
		// charging.
		var next *blockRun
		switch run.term {
		case asm.OpJmp:
			if next = run.next; next == nil {
				next = tr.chainTarget(t.m, nextPC)
				run.next = next
			}
		case asm.OpJcc:
			if nextPC == run.takenPC {
				if next = run.taken; next == nil {
					next = tr.chainTarget(t.m, nextPC)
					run.taken = next
				}
			} else {
				if next = run.fall; next == nil {
					next = tr.chainTarget(t.m, nextPC)
					run.fall = next
				}
			}
		}
		if next == nil {
			break
		}
		run = next
	}

	t.Stats.Instrs += uint64(done)
	if fault != nil {
		// Reconstruct the faulting instruction's PC from its slot index.
		t.PC = run.pcs[k-1]
		return done, t.fault(fault)
	}
	if !t.Halted {
		if k == run.n && run.term != asm.OpInvalid {
			// The run completed through a redirecting terminator (trap,
			// syscall and exit never reach here): resume where it pointed.
			t.PC = nextPC
		} else {
			// Straight-line end: budget bite, early-ended block, or a plain
			// interior prefix — resume at the fall-through slot PC.
			t.PC = run.pcs[k]
		}
	}
	return done, nil
}

// bndCheck executes a bndcl/bndcu instruction, including the FP-masking
// credit and the masked check's static-cost refund.
func (t *Thread) bndCheck(ip *asm.Inst) *Fault {
	t.Stats.BndChecks++
	masked := false
	if t.fpCredit > 0 {
		t.fpCredit--
		t.Stats.BndMasked++
		masked = true
	}
	var addr uint64
	switch ip.Op {
	case asm.OpBndCLMem, asm.OpBndCUMem:
		// As with lea, the check is on the raw address (no segment).
		addr = t.ea(&ip.M, false)
	default:
		addr = t.Regs[ip.Src]
	}
	b := t.Bnd[ip.Bnd]
	switch ip.Op {
	case asm.OpBndCLMem, asm.OpBndCLReg:
		if addr < b.Lo {
			return &Fault{Kind: FaultBounds, Addr: addr,
				Msg: fmt.Sprintf("below %s.lower=%#x", ip.Bnd, b.Lo)}
		}
	default:
		if addr > b.Hi {
			return &Fault{Kind: FaultBounds, Addr: addr,
				Msg: fmt.Sprintf("above %s.upper=%#x", ip.Bnd, b.Hi)}
		}
	}
	if masked {
		// The check hid behind FP work: refund the static unit cost
		// charged by the block's prefix sum. A faulting masked check
		// never gets here — its cost was never charged (the prefix sum
		// excludes the faulting slot).
		t.Stats.Cycles--
	}
	return nil
}

func (t *Thread) grantFPCredit() {
	if t.fpCredit < t.m.Conf.FPMaskDepth {
		t.fpCredit++
	}
}

// quantum is the round-robin scheduling slice: how many instructions
// (counting trusted-handler dispatches) each live thread executes before
// yielding to the next. Both dispatch modes share it, so the thread
// interleaving — and therefore every simulated result — is identical.
const quantum = 1024

// Run executes all live threads round-robin until every thread halts (or
// one faults). It returns the first fault encountered, if any. With
// Conf.Superblocks set, dispatch is per basic block (see superblock.go);
// otherwise one instruction at a time. The two modes are bit-identical in
// every simulated outcome.
func (m *Machine) Run() *Fault {
	m.rebuildHandlerIndex()
	m.fuel = m.Conf.DefaultFuel
	if m.Conf.Superblocks {
		return m.runBlocks()
	}
	for {
		live := false
		for _, t := range m.Threads {
			if t.Halted {
				continue
			}
			live = true
			for i := 0; i < quantum && !t.Halted; i++ {
				if m.fuel > 0 {
					m.fuel--
					if m.fuel == 0 {
						return t.fault(&Fault{Kind: FaultFuel})
					}
				}
				if f := t.Step(); f != nil {
					return f
				}
			}
		}
		if !live {
			return nil
		}
	}
}

// runBlocks is Run's superblock mode: each thread's quantum is spent in
// block-sized bites. The per-instruction fuel discipline is preserved
// exactly: stepping mode charges one fuel unit per Step and faults
// *before* the instruction that would consume the last unit, so with F
// units exactly F-1 instructions execute. Here the bite is capped at
// fuel-1 and the FaultFuel is raised when the tank is down to one unit.
func (m *Machine) runBlocks() *Fault {
	for {
		live := false
		for _, t := range m.Threads {
			if t.Halted {
				continue
			}
			live = true
			for i := 0; i < quantum && !t.Halted; {
				budget := quantum - i
				if m.fuel > 0 {
					if m.fuel == 1 {
						m.fuel = 0
						return t.fault(&Fault{Kind: FaultFuel})
					}
					if rem := m.fuel - 1; uint64(budget) > rem {
						budget = int(rem)
					}
				}
				n, f := t.stepBlocks(budget)
				if m.fuel > 0 {
					m.fuel -= uint64(n)
				}
				i += n
				if f != nil {
					return f
				}
			}
		}
		if !live {
			return nil
		}
	}
}

// TotalStats sums the stats of all threads.
func (m *Machine) TotalStats() Stats {
	var s Stats
	for _, t := range m.Threads {
		s.Add(t.Stats)
	}
	return s
}

// WallCycles estimates the wall-clock cycle count of the run: threads are
// assigned to Cores cores using longest-processing-time-first scheduling
// and the makespan is returned. With one thread this is just its cycle
// count; with more threads than cores the load is shared.
func (m *Machine) WallCycles() uint64 {
	loads := make([]uint64, m.Conf.Cores)
	// LPT: sort thread cycle counts descending, assign to least-loaded core.
	cycles := make([]uint64, 0, len(m.Threads))
	for _, t := range m.Threads {
		cycles = append(cycles, t.Stats.Cycles)
	}
	for i := 0; i < len(cycles); i++ {
		maxI := i
		for j := i + 1; j < len(cycles); j++ {
			if cycles[j] > cycles[maxI] {
				maxI = j
			}
		}
		cycles[i], cycles[maxI] = cycles[maxI], cycles[i]
		minCore := 0
		for c := 1; c < len(loads); c++ {
			if loads[c] < loads[minCore] {
				minCore = c
			}
		}
		loads[minCore] += cycles[i]
	}
	var max uint64
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	return max
}
