package machine

import (
	"confllvm/internal/asm"
)

// Superblock execution: Run (with Conf.Superblocks) dispatches once per
// basic block instead of once per instruction. A superblock is a maximal
// run of straight-line decoded instructions ending at (and including) the
// first terminator — any instruction that redirects or ends control flow
// (asm.Op.EndsBlock). Faultable straight-line ops (loads, bound checks,
// division...) stay in block interiors: execRun delivers their faults
// with the exact per-instruction PC and message. Block interiors skip the
// PC-range gate against the decode trace and the per-instruction PC and
// counter write-backs; both are either hoisted to block entry or deferred
// to block exit without changing any simulated result. Thread.Step is
// this same dispatcher with a one-instruction budget: it executes slot 0
// of the run entered at the PC and never chains, which keeps it the
// reference block dispatch is tested against.
//
// Trusted handlers live outside U's code: a handler address never lies in
// an executable region. traceFor refuses to build a trace over a region
// holding one, and Run checks every executable region on entry, each with
// a fault naming the address (the loader puts handlers in the
// non-executable t-region). So no PC inside a decode trace is a handler,
// and stepBlocks probes the Handlers map only when the PC leaves the
// current trace. Blocks and chain links never leave their trace, so they
// need no handler checks at all.
//
// Block IR: when buildBlock closes a superblock it flattens it into a
// blockRun — a dense []asm.Inst slice plus per-slot PCs and terminator
// metadata — cached in codeTrace.runs[entryOff], so execRun iterates a
// flat slice instead of re-walking lens[o] offsets per instruction.
//
// Direct block chaining: a run ending in a direct jmp, and both edges of
// a jcc, cache a pointer to the successor run when the target lies in the
// same trace. Hot loops then execute run-to-run inside execRun without
// returning through stepBlocks' trace lookup and runs[] probe. A link is
// only ever cached after validating that the dispatcher work it skips
// could not have mattered: same trace (no fetch fault, region change or
// handler dispatch) and decodable entry (no decode fault).
//
// Invalidation mirrors the decode traces themselves: patching code bytes
// (Memory.WriteBytesUnchecked) flushes whole traces — runs and the chain
// links inside them die with the trace.

// maxBlockLen caps a superblock at one scheduling quantum: longer blocks
// would be split by the quantum budget anyway.
const maxBlockLen = quantum

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
	// code running off the region, or an undecodable next slot. Early-ended
	// runs are never chained: their successor dispatch must re-probe
	// everything (and the off-region case must fault on fetch exactly as
	// stepping mode does).
	term    asm.Op
	takenPC uint64    // jmp/jcc branch target (uint64(Imm))
	next    *blockRun // chained successor of a direct jmp
	taken   *blockRun // chained jcc taken edge
	fall    *blockRun // chained jcc fall-through edge
}

// buildBlock decodes straight-line instructions from off up to and
// including the first terminator (capped at maxBlockLen slots), flattens
// them into a blockRun cached at tr.runs[off], and returns it. A decode
// failure at off itself is the caller's fault to deliver; a failure
// further in simply ends the block early — execution faults there when,
// and only when, the PC actually reaches that slot, exactly as
// per-instruction stepping would.
func (tr *codeTrace) buildBlock(off uint64) (*blockRun, *Fault) {
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
		if op := tr.insts[o].Op; op.EndsBlock() {
			term = op
			break
		}
		if n >= maxBlockLen {
			break
		}
		o += uint64(ln)
		if o >= tr.size {
			// Straight-line code running off the region: the next dispatch
			// faults on fetch, as stepping mode does. term stays OpInvalid
			// so the run is never chained past the missing fetch.
			break
		}
	}

	run := &blockRun{
		insts: make([]asm.Inst, n),
		pcs:   make([]uint64, n+1),
		cum:   make([]uint32, n+1),
		n:     n,
		term:  term,
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
	case asm.OpMulRR, asm.OpMulRI, asm.OpMulHiRI:
		return 3
	case asm.OpDivRR, asm.OpModRR, asm.OpUDivRR, asm.OpUModRR:
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
// different trace (the target may need a fetch fault, a trace switch or a
// trusted-handler dispatch), or an entry that fails to decode (the
// dispatcher delivers that fault with stepping-identical charging).
func (tr *codeTrace) chainTarget(pc uint64) *blockRun {
	off := pc - tr.lo
	if off >= tr.size {
		return nil
	}
	run := tr.runs[off]
	if run == nil {
		run, _ = tr.buildBlock(off)
	}
	return run
}

// stepBlocks executes up to max instructions on t: trusted-handler
// dispatches (each counting as one instruction), chained sequences of
// whole superblocks, and budget-capped block prefixes when a quantum or
// fuel boundary lands mid-block — the remainder simply becomes a new
// block entry at the interior PC. Returns the number of instructions
// charged, including a faulting one.
func (t *Thread) stepBlocks(max int) (int, *Fault) {
	m := t.m
	done := 0
	for done < max && !t.Halted {
		tr := m.lastTrace
		if tr == nil || t.PC-tr.lo >= tr.size {
			// The PC left the current trace. Only here can it be a trusted
			// handler: handlers never lie in an executable region.
			if h, ok := m.Handlers[t.PC]; ok {
				t.Stats.TrustedCall++
				done++
				// The handler performs the return sequence (moving t.PC) and
				// charges its transition cost; the profile attributes that
				// cycle delta to the handler's own address.
				hpc, c0 := t.PC, t.Stats.Cycles
				f := h(m, t)
				if prof := m.prof; prof != nil {
					prof.add(hpc, t.Stats.Cycles-c0, nil)
				}
				if f != nil {
					return done, t.fault(f)
				}
				continue
			}
			var f *Fault
			if tr, f = m.traceFor(t.PC); f != nil {
				return done, t.fault(f)
			}
			m.lastTrace = tr
		}
		run := tr.runs[t.PC-tr.lo]
		if run == nil {
			var f *Fault
			if run, f = tr.buildBlock(t.PC - tr.lo); f != nil {
				// The entry instruction is undecodable: it is charged as the
				// one instruction that faulted fetching it.
				return done + 1, t.fault(f)
			}
		}
		n, f := t.execRun(run, tr, max-done)
		done += n
		if f != nil {
			return done, f
		}
	}
	return done, nil
}
