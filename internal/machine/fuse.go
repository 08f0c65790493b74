package machine

import (
	"fmt"

	"confllvm/internal/asm"
)

// Superinstruction fusion (Conf.Fuse): when buildBlock flattens a
// superblock into a blockRun, fuseRun peephole-scans the constituent
// instruction list for hot multi-instruction idioms and rewrites the
// run's *slot program* — the sequence the dispatch loop walks — so each
// recognized idiom occupies one synthetic slot executed with a single
// opcode dispatch. The constituent arrays (insts, pcs, cum) are never
// touched: they stay constituent-indexed, so every per-instruction
// contract — fault PC reconstruction from run.pcs[k-1], the cum[]
// prefix-sum cycle charge, fuel accounting in instructions — extends
// through fused slots unchanged.
//
// Recognized idioms (greedy, left to right, longest first):
//
//	alu… + cmp + jcc      loop heads: a maximal run of packable ALU ops
//	                      (register/immediate arithmetic, logic, shifts,
//	                      moves — nothing that can fault or touch memory)
//	                      capped by a compare-and-branch
//	alu + alu…            packs: two or more consecutive packable ALU ops
//	load + alu + store    read-modify-write triples (non-faulting alu)
//	cmp + jcc             compare-and-branch pairs
//	bndck + load|store    MPX check+access pairs (any bndcl/bndcu form)
//
// De-fuse rules: a fused slot must be unobservable in every simulated
// result, so whenever an event lands *inside* one, execution falls back
// to the constituent list.
//
//   - A fuel or quantum bite whose boundary falls strictly inside a
//     fused slot makes execRun walk run.insts[:nb] (the raw constituent
//     prefix) instead of the fused program — the resume PC, cycle charge
//     and instruction count are those of the unfused walk.
//   - A fault on constituent i of a fused slot advances k only past the
//     i clean constituents plus the faulting one, so the fault's PC
//     (run.pcs[k-1]), its cycle stamp (cum charges exclude the faulting
//     slot) and its message are bit-identical to unfused dispatch.
//
// Both events bump Stats.Defuses; completed fused slots bump
// Stats.FusedSlots. Step's one-slot builds (limit 1) never fuse — a run
// needs at least two constituents — and short runs are rebuilt at full
// length by block dispatch before fusion decisions matter, so a prior
// Step at a hot PC cannot change Run's fusion. Invalidation needs no
// new machinery: fused programs live inside blockRuns, so code patches
// (flushTraces) and handler-range changes (flushBlocks) discard them
// with the runs, and a rebuilt block that now ends at a handler-range
// boundary simply never fuses across it.

// fuseKind enumerates the recognized idioms. The order must match the
// synthetic opcode block below (fuseOpFor adds the kind to the base).
type fuseKind uint8

const (
	fkAluCmpJcc   fuseKind = iota // alu pack (>= 1), cmp, jcc
	fkCmpJcc                      // cmp, jcc
	fkLoadOpStore                 // load, alu, store
	fkChkLoad                     // bndcl|bndcu, load
	fkChkStore                    // bndcl|bndcu, store
	fkAluPack                     // >= 2 consecutive packable ALU ops
)

// Synthetic fused opcodes, living far above the real opcode space. They
// appear only in a blockRun's fused slot program (xinsts), never in
// decoded traces or encoded images; their Imm field indexes run.fused.
const (
	opFuseAluCmpJcc asm.Op = 0xF0 + iota
	opFuseCmpJcc
	opFuseLoadOpStore
	opFuseChkLoad
	opFuseChkStore
	opFuseAluPack
)

func init() {
	// The real opcode space must stay clear of the synthetic block:
	// OpNop is the last real opcode.
	if asm.OpNop >= opFuseAluCmpJcc {
		panic("machine: synthetic fused opcodes collide with the real opcode space")
	}
	// regMask-based bounds-check elimination needs a power-of-two file.
	if asm.NumRegs&(asm.NumRegs-1) != 0 {
		panic("machine: NumRegs must be a power of two")
	}
}

// regMask masks register indices in the fused exec bodies. The decoder
// does not validate register bytes — an out-of-range index panics at
// execution time in the singleton opcode cases — so fusion must not
// change that: regsOK keeps any constituent with an out-of-range
// register *unfused* (it executes, and panics, on the switch path), and
// the mask is therefore a no-op on every register that reaches a fused
// body. Its only job is letting the compiler drop the per-access bounds
// checks in packExec and fuseAluCmpJcc, the hottest fused code.
const regMask = asm.NumRegs - 1

// regsOK reports whether a constituent's register fields are in range
// (Src is zero on immediate forms, so the unconditional check is safe).
func regsOK(ip *asm.Inst) bool {
	return ip.Dst < asm.NumRegs && ip.Src < asm.NumRegs
}

func fuseOpFor(k fuseKind) asm.Op { return opFuseAluCmpJcc + asm.Op(k) }

// fusedInst is one fused slot: the constituent instructions (a subslice
// of run.insts), their PCs including the fall-through PC (a subslice of
// run.pcs), the constituent index of the first one, and the summed
// static cost of the sequence (the cum[] span it covers).
//
// The exec-side fields below insts/pcs are *pre-decoded* operands,
// filled at flatten time so the hot fused bodies touch no asm.Inst at
// all: uops is the pack constituents translated to dense micro-ops
// (packExec's switch compiles to a jump table over them, where a switch
// on the sparse asm.Op space compiles to a comparison tree), and the
// cmp*/cond/PC scalars flatten an fkAluCmpJcc's compare-and-branch
// tail.
type fusedInst struct {
	kind  fuseKind
	base  int        // constituent index of insts[0]
	insts []asm.Inst // the constituents, aliasing run.insts
	pcs   []uint64   // len(insts)+1 PCs, aliasing run.pcs
	cost  uint32     // == run.cum[base+len(insts)] - run.cum[base]

	uops []uop // pre-decoded pack constituents (see packUop)

	// Pre-decoded compare-and-branch tail (fkAluCmpJcc only).
	cmpDst, cmpSrc uint8 // pre-masked register indices
	cmpIsRR        bool
	cond           asm.Cond
	cmpImm         uint64
	takenPC        uint64 // jcc target
	fallPC         uint64 // == pcs[len(insts)]
}

// uop is a pre-decoded packable constituent: a dense opcode (the u*
// block below), pre-masked register indices and the pre-converted
// immediate (shift immediates are pre-masked to 0..63). 24 bytes, so a
// pack walks half the memory the asm.Inst slots occupy — and after
// optimizePack usually fewer slots than constituents.
type uop struct {
	code     uint8
	dst, src uint8
	imm      uint64
	imm2     uint64 // second immediate, uMovRI2 only
}

// Dense micro-opcodes, one per isPackable member, starting at 0 so
// packExec's switch is a jump table.
const (
	uMovRI uint8 = iota
	uMovRR
	uAddRR
	uAddRI
	uSubRR
	uSubRI
	uMulRR
	uMulRI
	uAndRR
	uAndRI
	uOrRR
	uOrRI
	uXorRR
	uXorRI
	uShlRR
	uShlRI
	uShrRR
	uShrRI
	uSarRR
	uSarRI
	uNeg
	uNot
	uMovRI2 // dst=imm, src=imm2: two constant materializations in one step
)

// packUop translates a packable constituent (isPackable && regsOK) to
// its micro-op. Reached only from fuseRun, so the default case is a
// matcher/translator disagreement, not a user-input condition.
func packUop(ip *asm.Inst) uop {
	u := uop{dst: uint8(ip.Dst) & regMask, src: uint8(ip.Src) & regMask, imm: uint64(ip.Imm)}
	switch ip.Op {
	case asm.OpMovRI:
		u.code = uMovRI
	case asm.OpMovRR:
		u.code = uMovRR
	case asm.OpAddRR:
		u.code = uAddRR
	case asm.OpAddRI:
		u.code = uAddRI
	case asm.OpSubRR:
		u.code = uSubRR
	case asm.OpSubRI:
		u.code = uSubRI
	case asm.OpMulRR:
		u.code = uMulRR
	case asm.OpMulRI:
		u.code = uMulRI
	case asm.OpAndRR:
		u.code = uAndRR
	case asm.OpAndRI:
		u.code = uAndRI
	case asm.OpOrRR:
		u.code = uOrRR
	case asm.OpOrRI:
		u.code = uOrRI
	case asm.OpXorRR:
		u.code = uXorRR
	case asm.OpXorRI:
		u.code = uXorRI
	case asm.OpShlRR:
		u.code = uShlRR
	case asm.OpShlRI:
		u.code, u.imm = uShlRI, u.imm&63
	case asm.OpShrRR:
		u.code = uShrRR
	case asm.OpShrRI:
		u.code, u.imm = uShrRI, u.imm&63
	case asm.OpSarRR:
		u.code = uSarRR
	case asm.OpSarRI:
		u.code, u.imm = uSarRI, u.imm&63
	case asm.OpNeg:
		u.code = uNeg
	case asm.OpNot:
		u.code = uNot
	default:
		panic("machine: packUop: op is not packable")
	}
	return u
}

// fuseRun rewrites run's slot program: every matched idiom becomes one
// synthetic slot (Op = the idiom's fused opcode, Imm = index into
// run.fused), unmatched instructions become singleton copies. Runs with
// no match keep xinsts nil and pay nothing. Called once at flatten time
// (buildBlock), so the dispatch loop allocates nothing per execution.
func fuseRun(run *blockRun) {
	n := run.n
	if n < 2 {
		return
	}
	var xs []asm.Inst
	var fused []fusedInst
	for i := 0; i < n; {
		kind, ln := matchIdiom(run.insts, i, n)
		if ln == 0 {
			if xs != nil {
				xs = append(xs, run.insts[i])
			}
			i++
			continue
		}
		if xs == nil {
			// First match: materialize the singleton prefix.
			xs = append(make([]asm.Inst, 0, n), run.insts[:i]...)
		}
		xs = append(xs, asm.Inst{Op: fuseOpFor(kind), Imm: int64(len(fused))})
		fs := fusedInst{
			kind:  kind,
			base:  i,
			insts: run.insts[i : i+ln],
			pcs:   run.pcs[i : i+ln+1],
			cost:  run.cum[i+ln] - run.cum[i],
		}
		fs.predecode()
		fused = append(fused, fs)
		i += ln
	}
	if fused == nil {
		return
	}
	run.xinsts = xs
	run.fused = fused
}

// predecode fills the slot's exec-side fields from its constituents:
// the micro-op translation of the pack members and, for fkAluCmpJcc,
// the flattened compare-and-branch tail.
func (fs *fusedInst) predecode() {
	n := len(fs.insts)
	switch fs.kind {
	case fkAluCmpJcc:
		fs.uops = optimizePack(fs.insts[:n-2])
		cp := &fs.insts[n-2]
		fs.cmpDst = uint8(cp.Dst) & regMask
		fs.cmpSrc = uint8(cp.Src) & regMask
		fs.cmpIsRR = cp.Op == asm.OpCmpRR
		fs.cmpImm = uint64(cp.Imm)
		jp := &fs.insts[n-1]
		fs.cond = jp.Cond
		fs.takenPC = uint64(jp.Imm)
		fs.fallPC = fs.pcs[n]
	case fkAluPack:
		fs.uops = optimizePack(fs.insts)
	case fkLoadOpStore:
		fs.uops = []uop{packUop(&fs.insts[1])}
	}
}

// Pack optimization: a completed fused slot only exposes its *final*
// register file — packables cannot fault, never touch flags, and every
// bite or interior event de-fuses to the raw constituent walk — so the
// micro-op translation is free to fold the pack's dataflow at flatten
// time. optimizePack symbolically executes the constituents tracking
// each register as untouched (Orig), a known constant (Const), or
// already produced by emitted micro-ops (Expr): constant operands fold
// RR forms into RI forms, fully-constant results emit nothing until a
// single materializing mov at the end, dst==src identities (sub/xor to
// zero, self-mov/and/or no-ops) collapse, and intermediate overwrites
// die entirely. The emitted sequence is observation-equivalent to the
// constituents: every register a constituent wrote holds the identical
// final value, and instruction/cycle accounting stays constituent-
// indexed in the outer loop (cum[]/pcs[]/k are untouched by how few
// micro-ops execute).

const (
	rsOrig  uint8 = iota // register still holds its pack-entry value
	rsConst              // register's value is a known constant, not yet written
	rsExpr               // register was written by an emitted micro-op
)

type regState struct {
	kind uint8
	val  uint64
}

// packBinOp describes one two-operand packable op for the optimizer:
// its RR/RI micro-opcodes, its fold function, and whether the immediate
// operand is a shift count (masked to 0..63 before eval/emission).
type packBinOp struct {
	rr, ri uint8
	eval   func(a, b uint64) uint64
	shift  bool
}

var packBinOps = map[asm.Op]packBinOp{
	asm.OpAddRR: {uAddRR, uAddRI, func(a, b uint64) uint64 { return a + b }, false},
	asm.OpAddRI: {uAddRR, uAddRI, func(a, b uint64) uint64 { return a + b }, false},
	asm.OpSubRR: {uSubRR, uSubRI, func(a, b uint64) uint64 { return a - b }, false},
	asm.OpSubRI: {uSubRR, uSubRI, func(a, b uint64) uint64 { return a - b }, false},
	asm.OpMulRR: {uMulRR, uMulRI, func(a, b uint64) uint64 { return uint64(int64(a) * int64(b)) }, false},
	asm.OpMulRI: {uMulRR, uMulRI, func(a, b uint64) uint64 { return uint64(int64(a) * int64(b)) }, false},
	asm.OpAndRR: {uAndRR, uAndRI, func(a, b uint64) uint64 { return a & b }, false},
	asm.OpAndRI: {uAndRR, uAndRI, func(a, b uint64) uint64 { return a & b }, false},
	asm.OpOrRR:  {uOrRR, uOrRI, func(a, b uint64) uint64 { return a | b }, false},
	asm.OpOrRI:  {uOrRR, uOrRI, func(a, b uint64) uint64 { return a | b }, false},
	asm.OpXorRR: {uXorRR, uXorRI, func(a, b uint64) uint64 { return a ^ b }, false},
	asm.OpXorRI: {uXorRR, uXorRI, func(a, b uint64) uint64 { return a ^ b }, false},
	asm.OpShlRR: {uShlRR, uShlRI, func(a, b uint64) uint64 { return a << b }, true},
	asm.OpShlRI: {uShlRR, uShlRI, func(a, b uint64) uint64 { return a << b }, true},
	asm.OpShrRR: {uShrRR, uShrRI, func(a, b uint64) uint64 { return a >> b }, true},
	asm.OpShrRI: {uShrRR, uShrRI, func(a, b uint64) uint64 { return a >> b }, true},
	asm.OpSarRR: {uSarRR, uSarRI, func(a, b uint64) uint64 { return uint64(int64(a) >> b) }, true},
	asm.OpSarRI: {uSarRR, uSarRI, func(a, b uint64) uint64 { return uint64(int64(a) >> b) }, true},
}

// optimizePack translates pack constituents (all isPackable && regsOK)
// to a minimal micro-op sequence. Pure function of the constituent
// slice, so fused runs rebuilt from the same bytes optimize
// identically.
func optimizePack(insts []asm.Inst) []uop {
	var st [asm.NumRegs]regState
	uops := make([]uop, 0, len(insts))
	// force materializes a pending constant so an emitted micro-op can
	// read the register at runtime.
	force := func(r uint8) {
		if st[r].kind == rsConst {
			uops = append(uops, uop{code: uMovRI, dst: r, imm: st[r].val})
			st[r] = regState{kind: rsExpr}
		}
	}
	for i := range insts {
		ip := &insts[i]
		d := uint8(ip.Dst) & regMask
		s := uint8(ip.Src) & regMask
		switch op := ip.Op; op {
		case asm.OpMovRI:
			st[d] = regState{kind: rsConst, val: uint64(ip.Imm)}
		case asm.OpMovRR:
			switch {
			case d == s: // self-move: no-op
			case st[s].kind == rsConst:
				st[d] = regState{kind: rsConst, val: st[s].val}
			default:
				uops = append(uops, uop{code: uMovRR, dst: d, src: s})
				st[d] = regState{kind: rsExpr}
			}
		case asm.OpNeg, asm.OpNot:
			if st[d].kind == rsConst {
				if op == asm.OpNeg {
					st[d].val = -st[d].val
				} else {
					st[d].val = ^st[d].val
				}
				break
			}
			code := uNeg
			if op == asm.OpNot {
				code = uNot
			}
			uops = append(uops, uop{code: code, dst: d})
			st[d] = regState{kind: rsExpr}
		default:
			bo := packBinOps[op]
			isRR := op == asm.OpAddRR || op == asm.OpSubRR || op == asm.OpMulRR ||
				op == asm.OpAndRR || op == asm.OpOrRR || op == asm.OpXorRR ||
				op == asm.OpShlRR || op == asm.OpShrRR || op == asm.OpSarRR
			if isRR && d == s {
				// dst==src identities hold for any value.
				switch op {
				case asm.OpSubRR, asm.OpXorRR:
					st[d] = regState{kind: rsConst, val: 0}
					continue
				case asm.OpAndRR, asm.OpOrRR:
					continue // a&a == a|a == a
				}
			}
			var b uint64
			known := true
			if isRR {
				if st[s].kind == rsConst {
					b = st[s].val
				} else {
					known = false
				}
			} else {
				b = uint64(ip.Imm)
			}
			if known && bo.shift {
				b &= 63
			}
			switch {
			case known && st[d].kind == rsConst:
				st[d].val = bo.eval(st[d].val, b)
			case known:
				uops = append(uops, uop{code: bo.ri, dst: d, imm: b})
				st[d] = regState{kind: rsExpr}
			default:
				force(d)
				uops = append(uops, uop{code: bo.rr, dst: d, src: s})
				st[d] = regState{kind: rsExpr}
			}
		}
	}
	// Materialize every register whose final value is a pending constant.
	for r := uint8(0); r < asm.NumRegs; r++ {
		if st[r].kind == rsConst {
			uops = append(uops, uop{code: uMovRI, dst: r, imm: st[r].val})
		}
	}
	// Peephole: pair adjacent constant materializations. Writing dst
	// then src matches the sequential order, so even dst==src (which
	// the passes above never produce) would stay correct.
	merged := uops[:0]
	for i := 0; i < len(uops); i++ {
		if uops[i].code == uMovRI && i+1 < len(uops) && uops[i+1].code == uMovRI {
			merged = append(merged, uop{
				code: uMovRI2,
				dst:  uops[i].dst, src: uops[i+1].dst,
				imm: uops[i].imm, imm2: uops[i+1].imm,
			})
			i++
			continue
		}
		merged = append(merged, uops[i])
	}
	return merged
}

// matchIdiom reports the idiom starting at constituent i, or (0, 0).
// Longest match wins at each position; jcc and the other terminators
// can only ever be the last constituent (blockEnd), so a matched jcc is
// always the run's terminator and the chain-follow logic keeps working
// on run.term/run.takenPC untouched.
func matchIdiom(insts []asm.Inst, i, n int) (fuseKind, int) {
	rem := n - i
	op := insts[i].Op
	if isPackable(op) && regsOK(&insts[i]) {
		// Maximal run of packable ALU ops; if a cmp+jcc follows, absorb
		// it too — the whole loop head becomes one slot.
		p := 1
		for i+p < n && isPackable(insts[i+p].Op) && regsOK(&insts[i+p]) {
			p++
		}
		if rem >= p+2 && isCmpFlag(insts[i+p].Op) && regsOK(&insts[i+p]) &&
			insts[i+p+1].Op == asm.OpJcc {
			return fkAluCmpJcc, p + 2
		}
		if p >= 2 {
			return fkAluPack, p
		}
		return 0, 0
	}
	if rem >= 3 {
		if op == asm.OpLoad && isFusableALU(insts[i+1].Op) && regsOK(&insts[i+1]) &&
			insts[i+2].Op == asm.OpStore {
			return fkLoadOpStore, 3
		}
	}
	if rem >= 2 {
		if isBndCheck(op) {
			switch insts[i+1].Op {
			case asm.OpLoad:
				return fkChkLoad, 2
			case asm.OpStore:
				return fkChkStore, 2
			}
		}
		if isCmpFlag(op) && insts[i+1].Op == asm.OpJcc {
			return fkCmpJcc, 2
		}
	}
	return 0, 0
}

// isPackable matches the flag-free, fault-free register ops eligible for
// ALU packs: the fusable ALU set plus the two register moves. packExec
// must cover exactly this set.
func isPackable(op asm.Op) bool {
	return isFusableALU(op) || op == asm.OpMovRI || op == asm.OpMovRR
}

// isCmpFlag matches the register/immediate cmp forms. OpCmpMR is
// excluded: it can fault on its memory read, and keeping the flag-math
// constituents non-faulting keeps the cmp+jcc idioms fault-free.
func isCmpFlag(op asm.Op) bool {
	return op == asm.OpCmpRR || op == asm.OpCmpRI
}

// isFusableALU matches the non-faulting register ALU ops allowed as the
// middle of a load/op/store triple (div and mod can raise #DE and are
// excluded; packExec covers this set plus the moves).
func isFusableALU(op asm.Op) bool {
	switch op {
	case asm.OpAddRR, asm.OpAddRI, asm.OpSubRR, asm.OpSubRI,
		asm.OpMulRR, asm.OpMulRI,
		asm.OpAndRR, asm.OpAndRI, asm.OpOrRR, asm.OpOrRI,
		asm.OpXorRR, asm.OpXorRI,
		asm.OpShlRR, asm.OpShlRI, asm.OpShrRR, asm.OpShrRI,
		asm.OpSarRR, asm.OpSarRI,
		asm.OpNeg, asm.OpNot:
		return true
	}
	return false
}

func isBndCheck(op asm.Op) bool {
	switch op {
	case asm.OpBndCLMem, asm.OpBndCUMem, asm.OpBndCLReg, asm.OpBndCUReg:
		return true
	}
	return false
}

// splitsFused reports whether a bite boundary after constituent nb
// lands strictly inside one of run's fused slots (run.fused is ordered
// by base).
func (run *blockRun) splitsFused(nb int) bool {
	for i := range run.fused {
		fs := &run.fused[i]
		if fs.base >= nb {
			return false
		}
		if nb < fs.base+len(fs.insts) {
			return true
		}
	}
	return false
}

// The fused execution methods below are the single implementation of
// each idiom's semantics, called from the fused-slot cases in execRun's
// switch. Each replays its constituents in exact program order through
// the same helpers the singleton paths use, so registers, flags, stats,
// dynamic cycle components and fault payloads are bit-identical to
// unfused dispatch.

// fuseAluCmpJcc executes an ALU-pack + cmp + jcc loop head (variable
// length: >= 1 packable ops, then the pair). None of the constituents
// can fault. Everything it touches was pre-decoded at flatten time —
// the pack as micro-ops, the compare-and-branch as scalar fields — and
// the flag math is inlined rather than routed through cmpFlags: this is
// the hottest fused path, and both the asm.Inst traffic and the call
// overhead are measurable at interpreter speeds. Returns the jcc's
// next PC.
func (t *Thread) fuseAluCmpJcc(fs *fusedInst) uint64 {
	t.packExec(fs.uops)
	a := t.Regs[fs.cmpDst&regMask]
	b := fs.cmpImm
	if fs.cmpIsRR {
		b = t.Regs[fs.cmpSrc&regMask]
	}
	d := a - b
	t.ZF = d == 0
	t.SF = int64(d) < 0
	t.CF = a < b
	t.OF = (int64(a) < 0) != (int64(b) < 0) && (int64(d) < 0) != (int64(a) < 0)
	if t.condTrue(fs.cond) {
		return fs.takenPC
	}
	return fs.fallPC
}

// fuseCmpJcc executes a cmp, jcc pair (non-faulting). Returns the
// jcc's next PC.
func (t *Thread) fuseCmpJcc(fs *fusedInst) uint64 {
	t.cmpFlags(&fs.insts[0])
	return t.jccNext(&fs.insts[1], fs.pcs[2])
}

// fuseAluPack executes a standalone ALU pack (non-faulting).
func (t *Thread) fuseAluPack(fs *fusedInst) {
	t.packExec(fs.uops)
}

// packExec executes a pre-decoded pack: one jump-table dispatch per
// micro-op, with none of the outer dispatch loop's per-slot accounting.
// Register indices are pre-masked at build time and re-masked here
// (regMask) purely for bounds-check elimination — matchIdiom only fuses
// constituents whose registers regsOK validated, so the masks never
// change an index.
func (t *Thread) packExec(uops []uop) {
	for i := range uops {
		u := &uops[i]
		d := u.dst & regMask
		s := u.src & regMask
		switch u.code {
		case uMovRI:
			t.Regs[d] = u.imm
		case uMovRR:
			t.Regs[d] = t.Regs[s]
		case uAddRR:
			t.Regs[d] += t.Regs[s]
		case uAddRI:
			t.Regs[d] += u.imm
		case uSubRR:
			t.Regs[d] -= t.Regs[s]
		case uSubRI:
			t.Regs[d] -= u.imm
		case uMulRR:
			t.Regs[d] = uint64(int64(t.Regs[d]) * int64(t.Regs[s]))
		case uMulRI:
			t.Regs[d] = uint64(int64(t.Regs[d]) * int64(u.imm))
		case uAndRR:
			t.Regs[d] &= t.Regs[s]
		case uAndRI:
			t.Regs[d] &= u.imm
		case uOrRR:
			t.Regs[d] |= t.Regs[s]
		case uOrRI:
			t.Regs[d] |= u.imm
		case uXorRR:
			t.Regs[d] ^= t.Regs[s]
		case uXorRI:
			t.Regs[d] ^= u.imm
		case uShlRR:
			t.Regs[d] <<= t.Regs[s] & 63
		case uShlRI:
			t.Regs[d] <<= u.imm
		case uShrRR:
			t.Regs[d] >>= t.Regs[s] & 63
		case uShrRI:
			t.Regs[d] >>= u.imm
		case uSarRR:
			t.Regs[d] = uint64(int64(t.Regs[d]) >> (t.Regs[s] & 63))
		case uSarRI:
			t.Regs[d] = uint64(int64(t.Regs[d]) >> u.imm)
		case uNeg:
			t.Regs[d] = -t.Regs[d]
		case uNot:
			t.Regs[d] = ^t.Regs[d]
		case uMovRI2:
			t.Regs[d] = u.imm
			t.Regs[s] = u.imm2
		}
	}
}

// fuseLoadOpStore executes a load, alu, store triple. Returns the
// number of constituents that completed cleanly — on a fault that is
// the faulting constituent's index, so the caller can place k exactly
// where the unfused walk would have left it.
func (t *Thread) fuseLoadOpStore(fs *fusedInst) (int, *Fault) {
	if f := t.execLoad(&fs.insts[0]); f != nil {
		return 0, f
	}
	t.packExec(fs.uops)
	if f := t.execStore(&fs.insts[2]); f != nil {
		return 2, f
	}
	return 3, nil
}

// fuseChk executes a bndcl|bndcu check followed by the load or store it
// guards. Same return contract as fuseLoadOpStore.
func (t *Thread) fuseChk(fs *fusedInst) (int, *Fault) {
	if f := t.bndCheck(&fs.insts[0]); f != nil {
		return 0, f
	}
	mem := &fs.insts[1]
	var f *Fault
	if mem.Op == asm.OpLoad {
		f = t.execLoad(mem)
	} else {
		f = t.execStore(mem)
	}
	if f != nil {
		return 1, f
	}
	return 2, nil
}

// bndCheck executes a bndcl/bndcu instruction, including the FP-masking
// credit and the masked check's static-cost refund. It is the single
// implementation of bound-check semantics, shared by execRun's switch
// and fuseChk.
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

// cmpFlags executes a cmp constituent (register or immediate form).
func (t *Thread) cmpFlags(ip *asm.Inst) {
	if ip.Op == asm.OpCmpRR {
		t.setCmpFlags(t.Regs[ip.Dst], t.Regs[ip.Src])
	} else {
		t.setCmpFlags(t.Regs[ip.Dst], uint64(ip.Imm))
	}
}

// jccNext resolves a jcc constituent's next PC: the branch target when
// the condition holds, the fall-through PC otherwise.
func (t *Thread) jccNext(ip *asm.Inst, fall uint64) uint64 {
	if t.condTrue(ip.Cond) {
		return uint64(ip.Imm)
	}
	return fall
}

// execLoad executes a load constituent: the exact semantics of the
// OpLoad case in execRun's switch, including the dynamic cache cost.
func (t *Thread) execLoad(ip *asm.Inst) *Fault {
	addr := t.ea(&ip.M, true)
	v, f := t.m.Mem.Read(addr, ip.M.Size)
	if f != nil {
		return f
	}
	t.Regs[ip.Dst] = extend(v, ip.M.Size, ip.M.Signed)
	t.Stats.Loads++
	t.Stats.Cycles += t.memCost(addr)
	return nil
}

// execStore executes a store constituent (the OpStore case).
func (t *Thread) execStore(ip *asm.Inst) *Fault {
	addr := t.ea(&ip.M, true)
	if f := t.m.Mem.Write(addr, ip.M.Size, t.Regs[ip.Src]); f != nil {
		return f
	}
	t.Stats.Stores++
	t.Stats.Cycles += t.memCost(addr)
	return nil
}
