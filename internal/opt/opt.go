// Package opt implements the IR optimization pipeline, and every variant
// runs the same one, O2. The paper's prototype disables the LLVM passes
// that drop its taint metadata (§5.1: "We disable the remaining
// optimizations in our prototype"). Here no pass has metadata to drop:
// taint inference runs after opt, on the optimized IR, so a rewritten
// instruction is one more flow edge for inference to check, and local CSE
// merges a constant only with one of the same qualified type, so it never
// unifies a private 0 or NULL with a public one. None (-O0) remains for
// the NoOpt build.
//
// O2 runs block-local passes (constant folding, copy propagation, CSE),
// use-count DCE, branch threading and unreachable-block removal, and
// truncElim, to a fixpoint; and once, on round 0's cleaned-up IR, the
// passes of loops.go over internal/cfg's loop nest. Those delete every
// pure def whose value is dead (strong liveness), give each natural loop
// a preheader, and then, innermost loop first and only in loops without
// a call (whose values would then live across calls): LICM hoists a
// pure, non-faulting instruction whose operands are invariant or
// constants (cloned: prepass folds a constant into an immediate only
// within its block), whose result has one def in the loop and is not
// live into the header; and operator strength reduction (Cooper, Simpson
// & Vick, TOPLAS 2001) replaces k*x and k*x + y, for a basic induction
// variable k, with a new value of the product's type stepped beside k's
// update. Taint inference sees every new value typed like the one it
// replaces.
package opt

import (
	"math"
	"slices"

	"confllvm/internal/ir"
	"confllvm/internal/rng"
	"confllvm/internal/types"
)

// Passes selects which optimizations run. Callers outside this package
// pick one of the two pipelines, O2 or None; only the package's own tests
// select single passes.
type Passes struct {
	constFold   bool
	copyProp    bool
	localCSE    bool // block-local value numbering
	dce         bool
	simplifyCFG bool
	truncElim   bool // drop truncs whose high bits nothing reads
	deadDefs    bool // drop pure defs whose value is dead, by liveness
	loops       bool // preheaders, LICM and strength reduction
}

// O2 is the full pipeline, run by every variant: every pass above, with
// the loop passes and liveness-based dead-def removal once per function
// (see the package comment and loops.go for their legality rules).
func O2() Passes {
	return Passes{constFold: true, copyProp: true, localCSE: true, dce: true,
		simplifyCFG: true, truncElim: true, deadDefs: true, loops: true}
}

// None disables all optimization (-O0).
func None() Passes { return Passes{} }

// Run applies the selected passes to every function until a fixpoint
// (bounded at 4 rounds).
func Run(mod *ir.Module, p Passes) {
	var s scratch
	for _, f := range mod.Funcs {
		if f.Blocks == nil {
			continue
		}
		s.fit(f)
		for round := 0; round < 4; round++ {
			// changed records rewrites by CFG simplification, constant
			// folding and CSE; cleanup those by copy propagation and DCE.
			changed, cleanup := false, false
			if p.simplifyCFG {
				changed = s.simplifyCFG(f) || changed
			}
			truncs := false
			if p.truncElim && round == 0 {
				// Once: on the benchmark programs no later round's
				// rewrites expose another dead trunc, and this is the
				// pipeline's costliest pass.
				truncs = s.truncElim(f)
			}
			if p.constFold {
				changed = s.constFold(f) || changed
			}
			if p.copyProp {
				cleanup = s.copyProp(f) || cleanup
			}
			if p.localCSE {
				changed = s.localCSE(f) || changed
			}
			if p.dce {
				cleanup = s.dce(f) || cleanup
			}
			if (p.deadDefs || p.loops) && round == 0 {
				// Once, on round 0's cleaned-up IR, whose truncElim has
				// turned the truncs between products and adds into
				// copies. The copies later rounds leave dead are temps,
				// which dce's use counts catch.
				ok, hasLoop := s.lp.analyze(f, p.loops)
				if ok && p.deadDefs {
					cleanup = s.lp.deadDefs() || cleanup
				}
				if p.loops && hasLoop && s.loopPasses(f) {
					changed = true
					s.fit(f)
				}
			}
			// A round whose only work was removing the copies truncElim
			// left (the copy propagation and DCE that follow it in the
			// same round) needs no confirmation round: on the benchmark
			// programs that round never changed anything.
			if !changed && (!cleanup || truncs) {
				break
			}
		}
	}
}

// scratch is Run's working state. Every function and round shares it, so
// no pass allocates per block or per call once it has grown to the
// largest function.
//
// The block-local passes (constant folding, copy propagation and CSE)
// work over mutable vregs, so a fact dies when a value it names is
// redefined or control leaves its block. Rather than delete facts, they
// stamp every def from one clock that only moves forward. A fact records
// the stamps of the values it names, and it holds only while those stamps
// are current and its own stamp is later than the start of its block. A
// stale fact simply never matches, so each instruction costs O(1) and no
// table is ever cleared. (A uint32 clock covers 4G defs per Run.)
type scratch struct {
	clock   uint32
	stamp   []uint32 // per value: the stamp of its latest def; 0 before any
	consts  []constFact
	aliases []alias
	used    []bool
	avail   []cseSlot   // open-addressing table; the length is a power of two
	blocks  []*ir.Block // by block id
	reached []bool      // by block id
	work    []int
	// truncElim's state: per value, 1 + its index among the narrow
	// integers (or 0) and its width (8 unless narrow); per block id, a
	// set, a dirty flag, its first instruction's index and its
	// predecessors; per instruction, a drop flag; and the working set.
	narrow  []int32
	width   []uint8
	hbIn    []uint64 // block id major
	dirty   []bool
	start   []int32
	predOff []int32
	preds   []int32
	drop    []bool
	hbLive  []uint64
	lp      loopState
}

// fit grows the per-value tables to f. Entries left by earlier functions
// need no reset: their stamps are older than any block of f.
func (s *scratch) fit(f *ir.Func) {
	if n := f.NumValues(); len(s.stamp) < n {
		n += n / 4 // room for the values the loop passes add
		s.stamp = append(s.stamp, make([]uint32, n-len(s.stamp))...)
		s.consts = append(s.consts, make([]constFact, n-len(s.consts))...)
		s.aliases = append(s.aliases, make([]alias, n-len(s.aliases))...)
		s.used = append(s.used, make([]bool, n-len(s.used))...)
		s.narrow = append(s.narrow, make([]int32, n-len(s.narrow))...)
		s.width = append(s.width, make([]uint8, n-len(s.width))...)
	}
}

// stampOf returns the stamp of v's latest def. NoValue, which irgen leaves
// as the operand where a void call's result is used, is never defined, so
// its stamp stays 0 and a fact naming it lasts as long as its other stamps.
func (s *scratch) stampOf(v ir.Value) uint32 {
	if v == ir.NoValue {
		return 0
	}
	return s.stamp[v]
}

// def stamps a (re)definition of v and returns the stamp.
func (s *scratch) def(v ir.Value) uint32 {
	s.clock++
	s.stamp[v] = s.clock
	return s.clock
}

// ---- Constant folding ----

// constFact is the fact v = const imm, stamped with that def of v.
type constFact struct {
	imm int64
	ver uint32
}

// constOf returns v's constant if a def in the current block (begun at
// start) set one and v has not been redefined since.
func (s *scratch) constOf(v ir.Value, start uint32) (int64, bool) {
	if v == ir.NoValue {
		return 0, false
	}
	c := s.consts[v]
	return c.imm, c.ver > start && c.ver == s.stamp[v]
}

// constFold folds arithmetic over constants, block-locally. A vreg is known
// constant within a block from the point of a Const def until reassigned.
func (s *scratch) constFold(f *ir.Func) bool {
	changed := false
	for _, blk := range f.Blocks {
		start := s.clock
		for _, in := range blk.Insts {
			var ver uint32
			if in.Op.HasResult() && in.Res != ir.NoValue {
				ver = s.def(in.Res)
			}
			switch {
			case in.Op == ir.OpConst:
				s.consts[in.Res] = constFact{imm: in.Imm, ver: ver}
			case in.Op.Class() == ir.ClassIntBin || in.Op == ir.OpICmp:
				a, okA := s.constOf(in.Args[0], start)
				b, okB := s.constOf(in.Args[1], start)
				if !okA || !okB {
					continue
				}
				v, ok := foldBin(in, a, b)
				if !ok {
					continue
				}
				*in = ir.Inst{Op: ir.OpConst, Res: in.Res, Imm: v, Ty: f.ValueType(in.Res), Pos: in.Pos}
				s.consts[in.Res] = constFact{imm: v, ver: ver}
				changed = true
			case in.Op == ir.OpCondBr:
				if v, ok := s.constOf(in.Args[0], start); ok {
					target := in.Blk
					if v == 0 {
						target = in.Blk2
					}
					*in = ir.Inst{Op: ir.OpBr, Res: ir.NoValue, Blk: target, Pos: in.Pos}
					changed = true
				}
			}
		}
	}
	return changed
}

// foldBin evaluates a in.Op b, an integer binop or icmp, as the lowering
// computes it in a register; a div or mod divides by in.Ty's signedness.
func foldBin(in *ir.Inst, a, b int64) (int64, bool) {
	switch op := in.Op; op {
	case ir.OpICmp:
		return foldICmp(in.Pred, a, b), true
	case ir.OpAdd:
		return a + b, true
	case ir.OpSub:
		return a - b, true
	case ir.OpMul:
		return a * b, true
	case ir.OpDiv, ir.OpMod:
		unsigned := !in.Ty.Signed
		if b == 0 || !unsigned && b == -1 && a == math.MinInt64 {
			return 0, false // faults (#DE) at run time
		}
		switch {
		case unsigned && op == ir.OpDiv:
			return int64(uint64(a) / uint64(b)), true
		case unsigned:
			return int64(uint64(a) % uint64(b)), true
		case op == ir.OpDiv:
			return a / b, true
		}
		return a % b, true
	case ir.OpAnd:
		return a & b, true
	case ir.OpOr:
		return a | b, true
	case ir.OpXor:
		return a ^ b, true
	case ir.OpShl:
		return a << uint(b&63), true
	case ir.OpShr:
		return int64(uint64(a) >> uint(b&63)), true
	case ir.OpSar:
		return a >> uint(b&63), true
	}
	return 0, false
}

func foldICmp(p ir.Pred, a, b int64) int64 {
	var r bool
	switch p {
	case ir.PredEQ:
		r = a == b
	case ir.PredNE:
		r = a != b
	case ir.PredSLT:
		r = a < b
	case ir.PredSLE:
		r = a <= b
	case ir.PredSGT:
		r = a > b
	case ir.PredSGE:
		r = a >= b
	case ir.PredULT:
		r = uint64(a) < uint64(b)
	case ir.PredULE:
		r = uint64(a) <= uint64(b)
	case ir.PredUGT:
		r = uint64(a) > uint64(b)
	case ir.PredUGE:
		r = uint64(a) >= uint64(b)
	}
	if r {
		return 1
	}
	return 0
}

// ---- Copy propagation ----

// alias is the fact dst = copy src, stamped with that def of dst and with
// src's stamp at the copy.
type alias struct {
	src         ir.Value
	ver, srcVer uint32
}

// copyProp replaces uses of a Copy destination with its source, block-
// locally, while neither is reassigned.
func (s *scratch) copyProp(f *ir.Func) bool {
	changed := false
	for _, blk := range f.Blocks {
		start := s.clock
		for _, in := range blk.Insts {
			for i, a := range in.Args {
				if a == ir.NoValue {
					continue
				}
				if al := s.aliases[a]; al.ver > start && al.ver == s.stamp[a] && al.srcVer == s.stampOf(al.src) {
					in.Args[i] = al.src
					changed = true
				}
			}
			if in.Res == ir.NoValue {
				continue
			}
			ver := s.def(in.Res)
			if in.Op == ir.OpCopy && in.Args[0] != in.Res {
				src := in.Args[0]
				s.aliases[in.Res] = alias{src: src, ver: ver, srcVer: s.stampOf(src)}
			}
		}
	}
	return changed
}

// ---- Local CSE ----

// cseKey names a pure expression: an operation over operand values at
// given stamps, or a constant. A constant is keyed by its value and its
// result's declared type, so a 0 or NULL whose qualifier or pointee may
// resolve private never merges with a public one; its operand fields are
// NoValue.
type cseKey struct {
	op     ir.Op
	pred   ir.Pred
	a, b   ir.Value
	av, bv uint32
	imm    int64
	ty     *types.Type
}

// hash mixes every field but the type pointer; its qualifier stands in,
// since distinct declarations carry distinct qualifier variables.
func (k *cseKey) hash() uint64 {
	var q uint64
	if k.ty != nil {
		q = uint64(uint32(k.ty.Qual))
	}
	return rng.Mix(uint64(k.op)|uint64(k.pred)<<8|q<<32,
		uint64(uint32(k.a))<<32|uint64(k.av), uint64(uint32(k.b))<<32|uint64(k.bv), uint64(k.imm))
}

// cseSlot is one entry of the CSE table: res computed key at stamp ver.
// A slot whose stamp is not later than the current block's start is
// empty, so the table never needs clearing.
type cseSlot struct {
	key cseKey
	res ir.Value
	ver uint32
}

// slot returns key's slot in the table: the one holding key, or the empty
// one where it would go. The table is kept at least twice the size of the
// block, so the probe always ends.
func (s *scratch) slot(key *cseKey, start uint32) *cseSlot {
	mask := uint64(len(s.avail) - 1)
	for i := key.hash() & mask; ; i = (i + 1) & mask {
		sl := &s.avail[i]
		if sl.ver <= start || sl.key == *key {
			return sl
		}
	}
}

// localCSE reuses block-local recomputations of pure expressions.
func (s *scratch) localCSE(f *ir.Func) bool {
	changed := false
	for _, blk := range f.Blocks {
		if n := 2 * len(blk.Insts); len(s.avail) < n {
			size := 16
			for size < n {
				size *= 2
			}
			s.avail = make([]cseSlot, size)
		}
		start := s.clock
		for _, in := range blk.Insts {
			var key cseKey
			switch {
			// A div or mod is never merged: the key has no operation
			// type, which decides its value.
			case in.Op.Class() == ir.ClassIntBin && !in.Op.MayFault(), in.Op == ir.OpICmp:
				a, b := in.Args[0], in.Args[1]
				key = cseKey{op: in.Op, pred: in.Pred, a: a, av: s.stampOf(a), b: b, bv: s.stampOf(b)}
			case in.Op == ir.OpConst:
				key = cseKey{op: in.Op, a: ir.NoValue, b: ir.NoValue, imm: in.Imm, ty: f.ValueType(in.Res)}
			default:
				if in.Res != ir.NoValue {
					s.def(in.Res)
				}
				continue
			}
			sl := s.slot(&key, start)
			if sl.ver > start && sl.ver == s.stamp[sl.res] {
				res := in.Res
				*in = ir.Inst{Op: ir.OpCopy, Res: res, Args: []ir.Value{sl.res}, Ty: f.ValueType(res), Pos: in.Pos}
				s.def(res)
				changed = true
				continue
			}
			if in.Res != ir.NoValue {
				*sl = cseSlot{key: key, res: in.Res, ver: s.def(in.Res)}
			}
		}
	}
	return changed
}

// ---- Dead code elimination ----

// hasSideEffects reports whether in must stay although its result is
// unused: it defines none, calls, or may fault.
func hasSideEffects(in *ir.Inst) bool {
	return !in.Op.HasResult() || in.Op.Class() == ir.ClassCall || in.Op.MayFault()
}

// dce removes pure instructions whose results are never used anywhere and
// Copy instructions to dead vregs. (deadDefs, in loops.go, also removes
// the defs no use reads.)
func (s *scratch) dce(f *ir.Func) bool {
	used := s.used[:f.NumValues()]
	clear(used)
	for _, blk := range f.Blocks {
		for _, in := range blk.Insts {
			for _, a := range in.Args {
				if a != ir.NoValue {
					used[a] = true
				}
			}
		}
	}
	changed := false
	for _, blk := range f.Blocks {
		out := blk.Insts[:0]
		for _, in := range blk.Insts {
			if !hasSideEffects(in) && in.Res != ir.NoValue && !used[in.Res] {
				changed = true
				continue
			}
			out = append(out, in)
		}
		blk.Insts = out
	}
	return changed
}

// ---- CFG simplification ----

// simplifyCFG threads every branch into a block that holds only br X
// straight to X, and removes the blocks the entry no longer reaches. The
// loop passes run right after it, so a preheader they insert is never
// threaded away before they fill it; one they leave empty goes in the
// next round.
func (s *scratch) simplifyCFG(f *ir.Func) bool {
	if len(f.Blocks) == 0 {
		return false
	}
	n := 0
	for _, b := range f.Blocks {
		n = max(n, b.ID+1)
	}
	if len(s.blocks) < n {
		s.blocks = make([]*ir.Block, n)
		s.reached = make([]bool, n)
	}
	blocks, reached := s.blocks[:n], s.reached[:n]
	clear(blocks)
	clear(reached)
	for _, b := range f.Blocks {
		blocks[b.ID] = b
	}
	// forward returns the block a branch to id reaches first that is not
	// a lone br; a cycle of them ends the walk anywhere on it.
	forward := func(id int) int {
		for range f.Blocks {
			if id < 0 || id >= n || blocks[id] == nil {
				break
			}
			b := blocks[id]
			if len(b.Insts) != 1 || b.Insts[0].Op != ir.OpBr || b.Insts[0].Blk == id {
				break
			}
			id = b.Insts[0].Blk
		}
		return id
	}
	threaded := false
	for _, b := range f.Blocks {
		if len(b.Insts) == 0 {
			continue
		}
		switch t := b.Insts[len(b.Insts)-1]; t.Op {
		case ir.OpCondBr:
			if x := forward(t.Blk2); x != t.Blk2 {
				t.Blk2, threaded = x, true
			}
			fallthrough
		case ir.OpBr:
			if x := forward(t.Blk); x != t.Blk {
				t.Blk, threaded = x, true
			}
		}
	}
	visit := func(id int) {
		if id >= 0 && id < n && blocks[id] != nil && !reached[id] {
			reached[id] = true
			s.work = append(s.work, id)
		}
	}
	s.work = s.work[:0]
	visit(f.Blocks[0].ID)
	count := 0
	for len(s.work) > 0 {
		b := blocks[s.work[len(s.work)-1]]
		s.work = s.work[:len(s.work)-1]
		count++
		for _, id := range b.Succs() {
			visit(id)
		}
	}
	if count == len(f.Blocks) {
		return threaded
	}
	out := f.Blocks[:0]
	for _, b := range f.Blocks {
		if reached[b.ID] {
			out = append(out, b)
		}
	}
	f.Blocks = out
	return true
}

// ---- Sign-extension elimination ----

// truncElim turns each integer-to-integer trunc whose result's high bits
// (the bits above its type's width) nothing reads into a copy, which copy
// propagation and DCE then remove (Kawahito, Komatsu & Nakatani,
// "Effective Sign Extension Elimination", PLDI 2002). A register must be
// canonical (see ir.OpTrunc) only where its high bits are read.
//
// It is a backward dataflow over the narrow integer values, shaped like
// liveness: a value is in the set where its high bits may still be read.
// Only the uses readsHighBits lists leave them unread; every other use,
// including any op added to the IR later, is a reader, so the pass is
// safe by default. Each sweep is linear in the function and visits only
// the blocks whose successors' sets changed since their last visit;
// another sweep follows only when a set changed along a back edge.
//
// Only integer-to-integer truncs become copies. For those a copy's taint
// constraint is the trunc's (the operand's qualifier flows into the
// result's), so taint inference, which runs after opt, sees the same
// constraints.
func (s *scratch) truncElim(f *ir.Func) bool {
	k := int32(0)
	for v := range f.NumValues() {
		s.narrow[v], s.width[v] = 0, 8
		if t := f.ValueType(ir.Value(v)); t.IsInteger() && t.Size < 8 {
			k++
			s.narrow[v], s.width[v] = k, uint8(t.Size)
		}
	}
	if k == 0 {
		return false
	}
	words := int(k+63) / 64
	n := 0
	for _, b := range f.Blocks {
		n = max(n, b.ID+1)
	}
	if len(s.hbIn) < n*words {
		s.hbIn = make([]uint64, max(n*words, 2*len(s.hbIn)))
	}
	if len(s.hbLive) < words {
		s.hbLive = make([]uint64, words)
	}
	if len(s.dirty) < n+1 {
		s.dirty = make([]bool, max(n+1, 2*len(s.dirty)))
		s.start = make([]int32, len(s.dirty))
		s.predOff = make([]int32, len(s.dirty))
	}
	in, live := s.hbIn[:n*words], s.hbLive[:words]
	clear(in)
	blockIn := func(id int) []uint64 { return in[id*words : (id+1)*words] }
	// enter sets live to the union of b's successors' sets.
	enter := func(b *ir.Block) {
		clear(live)
		for _, id := range b.Succs() {
			for w, x := range blockIn(id) {
				live[w] |= x
			}
		}
	}
	// Each block's start in the function's instruction sequence, which
	// also orders the blocks by layout, and its predecessors, packed:
	// block id's are preds[off[id]:off[id+1]].
	dirty, start, off := s.dirty[:n], s.start[:n], s.predOff[:n+1]
	clear(off)
	total := 0
	for _, b := range f.Blocks {
		start[b.ID] = int32(total)
		total += len(b.Insts)
		for _, id := range b.Succs() {
			off[id+1]++
		}
	}
	for id := range n {
		off[id+1] += off[id]
	}
	s.preds = slices.Grow(s.preds[:0], int(off[n]))[:off[n]]
	for _, b := range f.Blocks {
		for _, id := range b.Succs() {
			s.preds[off[id]] = int32(b.ID)
			off[id]++
		}
	}
	for id := n - 1; id > 0; id-- {
		off[id] = off[id-1]
	}
	off[0] = 0
	s.drop = slices.Grow(s.drop[:0], total)[:total]
	clear(s.drop)
	// Sweep in reverse layout order, visiting only blocks whose
	// successors' sets changed since their last visit. A changed set
	// marks its predecessors; one this sweep has already passed (a back
	// edge's source) calls for another sweep. A block's last visit sees
	// its successors' final sets, so the drop flags it leaves on its
	// truncs are final.
	clear(dirty)
	for _, b := range f.Blocks {
		dirty[b.ID] = true
	}
	for again := true; again; {
		again = false
		for i := len(f.Blocks) - 1; i >= 0; i-- {
			b := f.Blocks[i]
			if !dirty[b.ID] {
				continue
			}
			dirty[b.ID] = false
			enter(b)
			drop := s.drop[start[b.ID]:]
			for j := len(b.Insts) - 1; j >= 0; j-- {
				in := b.Insts[j]
				if in.Op == ir.OpTrunc {
					r := s.narrow[in.Res] - 1
					drop[j] = r >= 0 && live[r/64]&(1<<(r%64)) == 0 &&
						in.Ty.IsInteger() && f.ValueType(in.Args[0]).IsInteger()
				}
				s.hbTransfer(in, live)
			}
			if bi := blockIn(b.ID); !slices.Equal(bi, live) {
				copy(bi, live)
				for _, p := range s.preds[off[b.ID]:off[b.ID+1]] {
					dirty[p] = true
					again = again || start[p] >= start[b.ID]
				}
			}
		}
	}
	rewrote := false
	for _, b := range f.Blocks {
		for j, in := range b.Insts {
			if s.drop[int(start[b.ID])+j] {
				in.Op = ir.OpCopy
				rewrote = true
			}
		}
	}
	return rewrote
}

// hbTransfer steps live, the set of narrow values whose high bits may be
// read after in, back over in.
func (s *scratch) hbTransfer(in *ir.Inst, live []uint64) {
	resRead := false
	resWidth := uint8(8)
	if in.Res != ir.NoValue && in.Op.HasResult() {
		resWidth = s.width[in.Res]
		if r := s.narrow[in.Res] - 1; r >= 0 {
			resRead = live[r/64]&(1<<(r%64)) != 0
			live[r/64] &^= 1 << (r % 64)
		}
	}
	for i, a := range in.Args {
		if a == ir.NoValue {
			continue
		}
		if r := s.narrow[a] - 1; r >= 0 && readsHighBits(in, i, s.width[a], resWidth, resRead) {
			live[r/64] |= 1 << (r % 64)
		}
	}
}

// readsHighBits reports whether in reads the high bits of its operand i,
// a narrow value w bytes wide, given its result's width and whether the
// result's own high bits are read. The low bits of add, sub, mul, and,
// or, xor and shl (of its value operand) depend only on the low bits of
// their operands, and a copy's are its operand's, so those read an
// operand's high bits only when the result is wider than it or the
// result's own high bits are read. A shift count is read modulo 64, a
// trunc no wider than its operand reads only the bits it keeps, and a
// store writes only its low bytes. Every other use reads them.
func readsHighBits(in *ir.Inst, i int, w, resWidth uint8, resRead bool) bool {
	switch in.Op {
	case ir.OpShl:
		if i == 1 {
			return false
		}
		fallthrough
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpCopy:
		return resRead || resWidth > w
	case ir.OpTrunc:
		return in.Ty.SizeOf() > int(w)
	case ir.OpStore:
		return i == 0 || in.Ty.SizeOf() > int(w)
	}
	return true
}
