package machine

import (
	"math"

	"confllvm/internal/asm"
)

// Superblock execution: Run (with Conf.Superblocks) dispatches once per
// basic block instead of once per instruction. A superblock is a maximal
// run of straight-line decoded instructions ending at (and including) the
// first terminator — any instruction that redirects or ends control flow.
// Block interiors skip the per-instruction trusted-handler probe, the
// PC-range gate against the decode trace, and the per-instruction PC and
// counter write-backs; all of those are either hoisted to block entry or
// deferred to block exit without changing any simulated result.
//
// Block IR: when buildBlock closes a superblock it flattens it into a
// blockRun — a dense []asm.Inst slice plus per-slot PCs and terminator
// metadata — cached in codeTrace.runs[entryOff], so execRun iterates a
// flat slice instead of re-walking lens[o] offsets per instruction.
//
// Direct block chaining (Conf.Chain): a run ending in a direct jmp, and
// both edges of a jcc, cache a pointer to the successor run when the
// target lies in the same trace and outside the trusted-handler range.
// Hot loops then execute run-to-run inside execRun without returning
// through stepBlocks' trace lookup, handler probe and runs[] probe. A
// link is only ever cached after validating that the dispatcher work it
// skips could not have mattered: same trace (no fetch fault or region
// change), outside [hndLo, hndHi] (no handler dispatch), decodable entry
// (no decode fault).
//
// Invalidation mirrors the decode traces themselves: patching code bytes
// (Memory.WriteBytesUnchecked) flushes whole traces — runs and the chain
// links inside them die with the trace. In addition, blocks never span a
// PC inside the registered trusted-handler address range [hndLo, hndHi]
// and chain links never target one — per-instruction stepping probes the
// handler map at every PC, so a block fused across (or chained into) a
// handler address would skip a dispatch. rebuildHandlerIndex flushes all
// run and block metadata whenever that range changes.

// maxBlockLen caps a superblock at one scheduling quantum: longer blocks
// would be split by the quantum budget anyway, and the cap keeps the
// count comfortably inside the uint16 blocks slot.
const maxBlockLen = quantum

func init() {
	// buildBlock narrows block lengths into the uint16 blocks[] index and
	// relies on maxBlockLen == quantum to bound them; guard the narrowing
	// against a future quantum bump.
	if quantum > math.MaxUint16 {
		panic("machine: quantum does not fit the uint16 blocks[] narrowing")
	}
}

// blockEnd reports whether op terminates a superblock: the ops that set
// the next PC non-sequentially, halt the thread, or unconditionally
// fault. Faultable straight-line ops (loads, bound checks, division...)
// stay in block interiors — execRun delivers their faults with the
// exact per-instruction PC and message.
func blockEnd(op asm.Op) bool {
	switch op {
	case asm.OpJmp, asm.OpJcc, asm.OpJmpR, asm.OpCall, asm.OpICall,
		asm.OpRet, asm.OpTrap, asm.OpExit, asm.OpSyscall:
		return true
	}
	return false
}

// blockRun is the flattened (block-IR) form of one superblock. Slot k's
// instruction is insts[k]; pcs[k] is its PC and pcs[k+1] its fall-through
// PC (pcs has n+1 entries), so execRun needs no lens[] walk and can
// reconstruct the exact faulting PC from a slot index alone. The chain
// fields cache validated successor links, resolved lazily on first use;
// nil means unresolved-or-unchainable, and a failed resolution simply
// falls back to the dispatcher (retrying costs two compares).
type blockRun struct {
	insts []asm.Inst // flattened copies of the block's instructions
	pcs   []uint64   // pcs[k] = PC of slot k; pcs[n] = fall-through PC
	cum   []uint32   // cum[k] = summed static cost of slots [0,k)
	n     int        // == len(insts)

	// term is the terminator op when the block ended at a true terminator,
	// and OpInvalid when it ended early — maxBlockLen cap, straight-line
	// code running off the region, the next PC entering the trusted-handler
	// range, or an undecodable next slot. Early-ended runs are never
	// chained: their successor dispatch must re-probe everything (and the
	// off-region case must fault on fetch exactly as stepping mode does).
	term    asm.Op
	takenPC uint64    // jmp/jcc branch target (uint64(Imm))
	next    *blockRun // chained successor of a direct jmp
	taken   *blockRun // chained jcc taken edge
	fall    *blockRun // chained jcc fall-through edge

	// short marks a run truncated by a caller limit below maxBlockLen
	// (Step's one-slot builds): correct to execute, but block dispatch
	// and chain resolution rebuild it at full length on first contact so
	// a prior Step at a hot PC cannot degrade Run to one-instruction
	// dispatches there.
	short bool

	// Superinstruction fusion (Conf.Fuse, see fuse.go): xinsts is the
	// fused slot program — synthetic idiom slots (Imm indexing fused)
	// interleaved with singleton copies — or nil when no idiom matched.
	// insts/pcs/cum above stay constituent-indexed regardless, so fuel,
	// fault PCs and cycle charges are computed identically either way.
	xinsts []asm.Inst
	fused  []fusedInst
}

// buildBlock decodes straight-line instructions from off up to and
// including the first terminator (capped at limit slots), flattens them
// into a blockRun cached at tr.runs[off] (recording the count in
// tr.blocks[off]), and returns it. Block dispatch passes maxBlockLen;
// Step passes 1 so that stepping through a long straight-line stretch
// builds one-slot runs instead of a quadratic pile of overlapping
// suffixes. A decode failure at off itself is the caller's fault to
// deliver; a failure further in simply ends the block early — execution
// faults there when, and only when, the PC actually reaches that slot,
// exactly as per-instruction stepping would.
func (tr *codeTrace) buildBlock(m *Machine, off uint64, limit int) (*blockRun, *Fault) {
	n := 0
	term := asm.OpInvalid
	for o := off; ; {
		ln := int(tr.lens[o])
		if ln == 0 {
			dn, err := asm.DecodeInto(&tr.insts[o], tr.code, int(o))
			if err != nil {
				if n == 0 {
					return nil, &Fault{Kind: FaultDecode, Addr: tr.lo + o, Msg: err.Error()}
				}
				break
			}
			tr.lens[o] = uint8(dn)
			ln = dn
		}
		n++
		if op := tr.insts[o].Op; blockEnd(op) {
			term = op
			break
		}
		if n >= limit {
			break
		}
		o += uint64(ln)
		if o >= tr.size {
			// Straight-line code running off the region: the next dispatch
			// faults on fetch, as stepping mode does. term stays OpInvalid
			// so the run is never chained past the missing fetch.
			break
		}
		if pc := tr.lo + o; pc >= m.hndLo && pc <= m.hndHi {
			// The successor PC could be a trusted handler: end the block so
			// the dispatcher re-probes the handler map there.
			break
		}
	}

	run := &blockRun{
		insts: make([]asm.Inst, n),
		pcs:   make([]uint64, n+1),
		cum:   make([]uint32, n+1),
		n:     n,
		term:  term,
		short: term == asm.OpInvalid && n == limit && limit < maxBlockLen,
	}
	o := off
	for i := 0; i < n; i++ {
		run.insts[i] = tr.insts[o]
		run.pcs[i] = tr.lo + o
		run.cum[i+1] = run.cum[i] + staticCost(tr.insts[o].Op)
		o += uint64(tr.lens[o])
	}
	run.pcs[n] = tr.lo + o
	if term == asm.OpJmp || term == asm.OpJcc {
		run.takenPC = uint64(run.insts[n-1].Imm)
	}
	// Fusion runs after the constituent arrays and the terminator
	// metadata are final: it rewrites only the slot program the dispatch
	// loop walks. Step's one-slot builds (limit 1) never fuse — fuseRun
	// needs at least two constituents — so a prior Step at a hot PC
	// cannot change the fusion of the full-length run block dispatch
	// rebuilds.
	if m.Conf.Fuse {
		fuseRun(run)
	}
	tr.blocks[off] = uint16(n)
	tr.runs[off] = run
	return run, nil
}

// staticCost returns op's fixed base cycle cost — the part of the cost
// model that depends only on the opcode. buildBlock folds these into the
// run's cum[] prefix sum so execRun charges a whole block's static
// cycles with one addition; the dynamic components (cache-miss
// penalties, FP-masked bound-check refunds) are applied by the opcode
// cases at execution time. Any new cost in the execRun switch must be
// either reflected here or added dynamically there.
func staticCost(op asm.Op) uint32 {
	switch op {
	case asm.OpMulRR, asm.OpMulRI:
		return 3
	case asm.OpDivRR, asm.OpModRR:
		return 20
	case asm.OpCall, asm.OpICall, asm.OpRet:
		return 2
	case asm.OpFDiv:
		return 12
	case asm.OpCvtIF, asm.OpCvtFI:
		return 2
	}
	return 1
}

// chainTarget resolves a chain link: the run entered at pc, built on
// demand, or nil when pc must go back through the full dispatcher — a
// different trace (the target may need a fetch fault or a trace switch),
// a PC inside the trusted-handler range (the handler map must be
// probed), or an entry that fails to decode (the dispatcher delivers
// that fault with stepping-identical charging).
func (tr *codeTrace) chainTarget(m *Machine, pc uint64) *blockRun {
	off := pc - tr.lo
	if off >= tr.size {
		return nil
	}
	if pc >= m.hndLo && pc <= m.hndHi {
		return nil
	}
	run := tr.runs[off]
	if run == nil || run.short {
		run, _ = tr.buildBlock(m, off, maxBlockLen)
	}
	return run
}

// stepBlocks executes up to max instructions on t: trusted-handler
// dispatches (each counting as one instruction, exactly like a Step
// call), chained sequences of whole superblocks, and budget-capped block
// prefixes when a quantum or fuel boundary lands mid-block — the
// remainder simply becomes a new block entry at the interior PC. Returns
// the number of instructions charged, including a faulting one.
func (t *Thread) stepBlocks(max int) (int, *Fault) {
	m := t.m
	chain := m.Conf.Chain
	done := 0
	for done < max && !t.Halted {
		if t.PC >= m.hndLo && t.PC <= m.hndHi {
			if h, ok := m.Handlers[t.PC]; ok {
				t.Stats.TrustedCall++
				done++
				// Mirror Step's profiling wrap: the handler's cycle delta
				// (its charge() transition cost) lands on its address.
				hpc, c0 := t.PC, t.Stats.Cycles
				f := h(m, t)
				if prof := m.prof; prof != nil {
					prof.add(hpc, t.Stats.Cycles-c0, 0)
				}
				if f != nil {
					return done, t.fault(f)
				}
				// Trusted handlers are the only code that can change the
				// handler set mid-run (Run re-indexes on entry), so the
				// size check lives here — after a dispatch — instead of
				// costing every block.
				if len(m.Handlers) != m.nHandlers {
					m.rebuildHandlerIndex()
				}
				continue
			}
		}
		tr := m.lastTrace
		if tr == nil || t.PC-tr.lo >= tr.size {
			var f *Fault
			if tr, f = m.traceFor(t.PC); f != nil {
				return done, t.fault(f)
			}
			m.lastTrace = tr
		}
		run := tr.runs[t.PC-tr.lo]
		if run == nil || run.short {
			var f *Fault
			if run, f = tr.buildBlock(m, t.PC-tr.lo, maxBlockLen); f != nil {
				// The entry instruction is undecodable: the charge matches
				// the Step call that would have faulted fetching it.
				return done + 1, t.fault(f)
			}
		}
		n, f := t.execRun(run, tr, max-done, chain)
		done += n
		if f != nil {
			return done, f
		}
	}
	return done, nil
}

// flushBlocks invalidates superblock metadata — flattened runs, chain
// links, and the block-length index — in every decode trace. The decoded
// instructions are untouched: this is for events that move dispatch
// points (handler-index changes), not code-byte patches — those flush
// the traces wholesale.
func (m *Machine) flushBlocks() {
	for _, tr := range m.traces {
		for i := range tr.blocks {
			tr.blocks[i] = 0
		}
		for i := range tr.runs {
			tr.runs[i] = nil
		}
	}
}
