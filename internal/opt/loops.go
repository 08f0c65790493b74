package opt

import (
	"slices"

	"confllvm/internal/cfg"
	"confllvm/internal/ir"
)

// ---- Liveness, dead definitions and the loop passes ----

// loopState is the state of liveness, dead-definition removal and the
// loop passes, part of scratch. The CFG's nodes are the blocks in layout
// order, then the new preheaders.
type loopState struct {
	loops   cfg.Loops
	node    []*ir.Block // by node
	nodeOf  []int32     // block id -> node
	succBuf []int
	succs   [][]int
	pair    [2]int
	predOff []int32
	preds   []int32
	dirty   []bool // liveness: the node's walk is stale
	// backward reports a branch to a block at or before its own in the
	// layout; without one the graph is acyclic.
	backward bool

	// Liveness of the nv values that existed when it was computed: words
	// uint64s per node, live-in sets node-major in liveIn, over the global
	// values; live is a working set.
	nv, words int
	liveIn    []uint64
	live      []uint64
	// Per value: its number among the global values (see liveness), or
	// -1; and liveness's and deadDefs' block marks.
	global, local []int32

	// Function-wide use facts: each value's use count, its user when it
	// has one use, and whether any use is not a load or store address.
	uses    []int32
	user    []*ir.Inst
	nonAddr []bool

	// Per-value facts about the loop being optimized, valid where mark
	// equals stamp: the defs in the loop, and for a value defined once
	// there, that def, its node and index; whether it was hoisted; and
	// its clone in the preheader (a constant), valid where cloneMark
	// equals stamp.
	stamp     int32
	mark      []int32
	defs      []int32
	defInst   []*ir.Inst
	defNode   []int32
	defIdx    []int32
	hoisted   []int32
	clone     []ir.Value
	cloneMark []int32

	bodyOff []int32 // see loopPasses
	bodies  []int32
	body    []int // the loop's nodes in reverse postorder
	latches []int
	pre     []*ir.Inst // instructions for the preheader, in order
	moved   []int32    // hoisted: node and index pairs
	srs     []srCand
}

// growTo extends s with zero values to length n.
func growTo[T any](s []T, n int) []T {
	if len(s) < n {
		s = append(s, make([]T, n-len(s))...)
	}
	return s
}

// fitValues grows the loop passes' per-value tables to f's values.
func (lp *loopState) fitValues(f *ir.Func) {
	n := f.NumValues()
	if len(lp.mark) >= n {
		return
	}
	n += n / 4
	lp.uses, lp.user, lp.nonAddr = growTo(lp.uses, n), growTo(lp.user, n), growTo(lp.nonAddr, n)
	lp.mark, lp.defs, lp.defInst = growTo(lp.mark, n), growTo(lp.defs, n), growTo(lp.defInst, n)
	lp.defNode, lp.defIdx, lp.hoisted = growTo(lp.defNode, n), growTo(lp.defIdx, n), growTo(lp.hoisted, n)
	lp.clone, lp.cloneMark = growTo(lp.clone, n), growTo(lp.cloneMark, n)
}

// buildCFG numbers f's blocks by layout and fills node, nodeOf and succs.
// It reports false, leaving f alone, on a branch to a block f lacks.
func (lp *loopState) buildCFG(f *ir.Func) bool {
	maxID := 0
	for _, b := range f.Blocks {
		maxID = max(maxID, b.ID)
	}
	lp.nodeOf = growTo(lp.nodeOf[:0], maxID+1)
	for i := range lp.nodeOf {
		lp.nodeOf[i] = -1
	}
	lp.node = append(lp.node[:0], f.Blocks...)
	for i, b := range f.Blocks {
		lp.nodeOf[b.ID] = int32(i)
	}
	lp.succBuf = lp.succBuf[:0]
	for _, b := range f.Blocks {
		lp.succBuf = b.AppendSuccs(lp.succBuf)
	}
	for i, id := range lp.succBuf {
		if id < 0 || id > maxID || lp.nodeOf[id] < 0 {
			return false
		}
		lp.succBuf[i] = int(lp.nodeOf[id])
	}
	lp.backward = false
	// Each list is a full slice expression, so appending the new
	// preheaders' lists never writes into the next block's.
	n := len(f.Blocks)
	lp.succs = lp.succs[:0]
	lp.predOff = growTo(lp.predOff[:0], n+1)
	off := 0
	for _, b := range f.Blocks {
		k := off + len(b.AppendSuccs(lp.pair[:0]))
		lp.succs = append(lp.succs, lp.succBuf[off:k:k])
		for _, x := range lp.succBuf[off:k] {
			lp.predOff[x+1]++
			lp.backward = lp.backward || x <= len(lp.succs)-1
		}
		off = k
	}
	// The predecessors, packed: node v's are preds[predOff[v]:predOff[v+1]].
	for v := range n {
		lp.predOff[v+1] += lp.predOff[v]
	}
	lp.preds = growTo(lp.preds[:0], off)
	for v, ss := range lp.succs {
		for _, x := range ss {
			lp.preds[lp.predOff[x]] = int32(v)
			lp.predOff[x]++
		}
	}
	copy(lp.predOff[1:], lp.predOff[:n])
	lp.predOff[0] = 0
	return true
}

// liveAt reports whether v is live into node n. A value created after
// the liveness was computed is live nowhere it is asked about: the loop
// passes create values only for one loop and its preheader, which they
// have finished with when an enclosing loop asks.
func (lp *loopState) liveAt(n int, v ir.Value) bool {
	if v == ir.NoValue || int(v) >= lp.nv {
		return false
	}
	g := lp.global[v]
	return g >= 0 && lp.liveIn[n*lp.words+int(g>>6)]&(1<<(uint(g)&63)) != 0
}

func setBit(s []uint64, i int32)      { s[i>>6] |= 1 << (uint(i) & 63) }
func clearBit(s []uint64, i int32)    { s[i>>6] &^= 1 << (uint(i) & 63) }
func hasBit(s []uint64, i int32) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }

// analyze builds f's CFG and the liveness of its values, and, with
// loops, the loop nest of a graph with a layout-backward edge, reporting
// whether it has a loop. It reports false, having done nothing, on a
// branch to a block f lacks.
func (lp *loopState) analyze(f *ir.Func, loops bool) (ok, hasLoop bool) {
	if !lp.buildCFG(f) {
		return false, false
	}
	if loops && lp.backward {
		lp.loops.Analyze(lp.succs)
		for v, h := range lp.loops.Header {
			hasLoop = hasLoop || h == v
		}
	}
	lp.liveness(f)
	return true, hasLoop
}

// liveness computes the live-in set of every node: which values some
// read may still see. It is strong liveness: a pure def whose value is
// dead reads nothing, so a value whose only reads are such defs is dead
// too, and deadDefs then deletes every dead def at once. It is a
// backward dataflow over the reverse postorder, walking each block in
// full on each sweep, until no set changes.
//
// Only a global value, one that some block reads before defining it, can
// be live into a node, so the sets range over the global values alone,
// numbered by global; the others live only between a def and the reads
// after it in one block. It leaves room for a preheader per node.
func (lp *loopState) liveness(f *ir.Func) {
	n, nv := len(lp.node), f.NumValues()
	lp.nv = nv
	lp.global = growTo(lp.global, nv)
	lp.local = growTo(lp.local, nv)
	// local[v] records the last block (1 + node) that defined v.
	clear(lp.local[:nv])
	k := int32(0)
	for i := range lp.global[:nv] {
		lp.global[i] = -1
	}
	for v, b := range lp.node {
		for _, in := range b.Insts {
			for _, a := range in.Args {
				if a != ir.NoValue && lp.local[a] != int32(v+1) && lp.global[a] < 0 {
					lp.global[a] = k
					k++
				}
			}
			if in.Res != ir.NoValue && in.Op.HasResult() {
				lp.local[in.Res] = int32(v + 1)
			}
		}
	}
	clear(lp.local[:nv])
	w := int(k+63) / 64
	lp.words = w
	lp.liveIn = growTo(lp.liveIn, 2*n*w)
	lp.live = growTo(lp.live, w)
	clear(lp.liveIn[:n*w])
	// Sweep in reverse layout order, walking only the nodes whose
	// successors' sets changed since their last walk. A changed set marks
	// its node's predecessors; one the sweep has passed (a layout-backward
	// edge's source) calls for another sweep.
	lp.dirty = growTo(lp.dirty, n)
	for v := range n {
		lp.dirty[v] = true
	}
	for again := true; again; {
		again = false
		for v := n - 1; v >= 0; v-- {
			if !lp.dirty[v] {
				continue
			}
			lp.dirty[v] = false
			live := lp.walk(v, false)
			if in := lp.liveIn[v*w : (v+1)*w]; !slices.Equal(in, live) {
				copy(in, live)
				for _, p := range lp.preds[lp.predOff[v]:lp.predOff[v+1]] {
					lp.dirty[p] = true
					again = again || int(p) >= v
				}
			}
		}
	}
}

// walk steps the live set back through node v from its live-out set and
// returns the live-in set, deleting the dead pure defs when remove is set.
// A value that is not global is live while local holds v's mark.
func (lp *loopState) walk(v int, remove bool) []uint64 {
	w := lp.words
	live := lp.live[:w]
	clear(live)
	for _, s := range lp.succs[v] {
		for j, x := range lp.liveIn[s*w : (s+1)*w] {
			live[j] |= x
		}
	}
	b, mark := lp.node[v], int32(-1-v)
	removed := false
	for i := len(b.Insts) - 1; i >= 0; i-- {
		in := b.Insts[i]
		if r := in.Res; r != ir.NoValue && in.Op.HasResult() {
			g := lp.global[r]
			if (g >= 0 && !hasBit(live, g) || g < 0 && lp.local[r] != mark) && !hasSideEffects(in) {
				if remove {
					b.Insts[i] = nil
					removed = true
				}
				continue
			}
			if g >= 0 {
				clearBit(live, g)
			} else {
				lp.local[r] = 0
			}
		}
		for _, a := range in.Args {
			switch {
			case a == ir.NoValue:
			case lp.global[a] >= 0:
				setBit(live, lp.global[a])
			default:
				lp.local[a] = mark
			}
		}
	}
	if removed {
		b.Insts = slices.DeleteFunc(b.Insts, func(in *ir.Inst) bool { return in == nil })
	}
	return live
}

// deadDefs deletes every pure def whose value is dead right after it (see
// liveness). That covers a result nothing reads, and also a value that
// is read, but not by any read this def reaches: the zero irgen gives a
// local declared without an initializer when every path assigns it
// before reading it, or a copy whose reads copy propagation rewrote. A
// zero that some read can see is live and stays.
func (lp *loopState) deadDefs() bool {
	changed := false
	for v, b := range lp.node {
		n := len(b.Insts)
		lp.walk(v, true)
		changed = changed || len(lp.node[v].Insts) != n
	}
	return changed
}

// loopPasses gives every loop of the analyzed function a preheader, then
// hoists invariants (licm) and reduces induction-variable products
// (strengthReduce), each loop before the loops around it.
func (s *scratch) loopPasses(f *ir.Func) bool {
	lp := &s.lp
	s.insertPreheaders(f)
	lp.fitValues(f)
	lp.countUses(f)
	// Each loop's nodes in reverse postorder, packed: head h's are
	// bodies[bodyOff[h]:bodyOff[h+1]]; a node is in the lists of the
	// loops around it.
	l, n := &lp.loops, len(lp.node)
	lp.bodyOff = growTo(lp.bodyOff[:0], n+1)
	for _, v := range l.RPO {
		for h := l.Header[v]; h >= 0; h = l.Parent[h] {
			lp.bodyOff[h+1]++
		}
	}
	for v := range n {
		lp.bodyOff[v+1] += lp.bodyOff[v]
	}
	lp.bodies = growTo(lp.bodies[:0], int(lp.bodyOff[n]))
	for _, v := range l.RPO {
		for h := l.Header[v]; h >= 0; h = l.Parent[h] {
			lp.bodies[lp.bodyOff[h]] = int32(v)
			lp.bodyOff[h]++
		}
	}
	copy(lp.bodyOff[1:], lp.bodyOff[:n])
	lp.bodyOff[0] = 0
	changed := false
	for i := len(l.RPO) - 1; i >= 0; i-- {
		if h := l.RPO[i]; l.Header[h] == h && l.Preheader[h] >= 0 {
			changed = s.optLoop(f, h) || changed
		}
	}
	return changed
}

// insertPreheaders inserts the preheaders cfg.InsertPreheaders chose: a
// new block holding only br h, laid out just before its head h, takes
// over the edges into h from outside the loop. Its live-in set is h's.
func (s *scratch) insertPreheaders(f *ir.Func) {
	lp := &s.lp
	n := len(lp.node)
	lp.succs = lp.loops.InsertPreheaders(lp.succs)
	if len(lp.succs) == n {
		return
	}
	nextID := len(lp.nodeOf)
	for p := n; p < len(lp.succs); p++ {
		h := lp.succs[p][0]
		b := &ir.Block{ID: nextID, Insts: []*ir.Inst{{Op: ir.OpBr, Res: ir.NoValue, Blk: lp.node[h].ID}}}
		nextID++
		lp.node = append(lp.node, b)
		w := lp.words
		copy(lp.liveIn[p*w:(p+1)*w], lp.liveIn[h*w:(h+1)*w])
	}
	// Retarget the moved edges.
	for v := range n {
		ss := lp.succs[v]
		if len(ss) == 0 {
			continue
		}
		switch t := lp.node[v].Insts[len(lp.node[v].Insts)-1]; t.Op {
		case ir.OpBr:
			t.Blk = lp.node[ss[0]].ID
		case ir.OpCondBr:
			t.Blk, t.Blk2 = lp.node[ss[0]].ID, lp.node[ss[1]].ID
		}
	}
	blocks := make([]*ir.Block, 0, len(lp.node))
	for v, b := range f.Blocks {
		if p := lp.loops.Preheader[v]; p >= n {
			blocks = append(blocks, lp.node[p])
		}
		blocks = append(blocks, b)
	}
	f.Blocks = blocks
}

// touch makes v's per-loop facts current, resetting them on first use.
func (lp *loopState) touch(v ir.Value) {
	if lp.mark[v] != lp.stamp {
		lp.mark[v], lp.defs[v], lp.defInst[v] = lp.stamp, 0, nil
	}
}

// defsIn returns the number of v's defs in the loop.
func (lp *loopState) defsIn(v ir.Value) int32 {
	if lp.mark[v] != lp.stamp {
		return 0
	}
	return lp.defs[v]
}

// scan counts the defs of the loop whose nodes are lp.body, under a new
// stamp, and reports whether the loop calls a function.
func (lp *loopState) scan() bool {
	lp.stamp++
	calls := false
	for _, v := range lp.body {
		for i, in := range lp.node[v].Insts {
			calls = calls || in.Op.Class() == ir.ClassCall
			if in.Res == ir.NoValue || !in.Op.HasResult() {
				continue
			}
			lp.touch(in.Res)
			lp.defs[in.Res]++
			lp.defInst[in.Res], lp.defNode[in.Res], lp.defIdx[in.Res] = in, int32(v), int32(i)
		}
	}
	return calls
}

// Operand kinds: how a value read in the loop is available in its
// preheader.
const (
	varying   = iota // defined in the loop, or read before its def there
	invariant        // unchanged through the loop: its own vreg
	constant         // the one def in the loop is a constant no read sees past: a clone
)

// operand classifies v, read in the loop headed by h. A value defined
// only outside the loop, or by an instruction already hoisted, is
// invariant. A constant is cloned rather than hoisted: prepass folds a
// constant into an immediate only within its block, so the loop keeps
// its own copy for the instructions that stay.
func (lp *loopState) operand(v ir.Value, h int) int {
	switch {
	case v == ir.NoValue:
		return varying
	case lp.defsIn(v) == 0 || lp.hoisted[v] == lp.stamp:
		return invariant
	case lp.defs[v] == 1 && lp.defInst[v].Op.Class() == ir.ClassConst && !lp.liveAt(h, v):
		return constant
	}
	return varying
}

// availIn returns the value that holds v's value in the preheader,
// queuing a clone of a constant on lp.pre the first time.
func (lp *loopState) availIn(f *ir.Func, v ir.Value, h int) ir.Value {
	if lp.operand(v, h) != constant {
		return v
	}
	if lp.cloneMark[v] == lp.stamp {
		return lp.clone[v]
	}
	c := *lp.defInst[v]
	c.Res = f.NewValue(f.ValueType(v))
	lp.pre = append(lp.pre, &c)
	lp.cloneMark[v], lp.clone[v] = lp.stamp, c.Res
	return c.Res
}

// optLoop runs LICM and then strength reduction on the loop headed by h.
func (s *scratch) optLoop(f *ir.Func, h int) bool {
	lp := &s.lp
	lp.body, lp.latches = lp.body[:0], lp.latches[:0]
	for _, v := range lp.bodies[lp.bodyOff[h]:lp.bodyOff[h+1]] {
		v := int(v)
		lp.body = append(lp.body, v)
		if slices.Contains(lp.succs[v], h) {
			lp.latches = append(lp.latches, v)
		}
	}
	lp.fitValues(f)
	if lp.scan() {
		return false
	}
	changed := s.licm(f, h)
	if changed {
		lp.fitValues(f)
		lp.scan()
	}
	return s.strengthReduce(f, h) || changed
}

// spliceInto inserts lp.pre into the preheader of h, before its branch.
func (lp *loopState) spliceInto(h int) {
	if len(lp.pre) == 0 {
		return
	}
	p := lp.node[lp.loops.Preheader[h]]
	p.Insts = slices.Insert(p.Insts, len(p.Insts)-1, lp.pre...)
	lp.pre = lp.pre[:0]
}

// hoistable reports whether in, in the loop headed by h, may compute its
// value once in the preheader instead:
//
//   - it is pure and cannot fault: an address, a non-faulting integer
//     binop, a float binop or a conversion (loads, stores, calls, div
//     and mod stay, and so do constants, which are cloned as operands);
//   - each operand is invariant or a clonable constant (operand);
//   - its result has no other def in the loop;
//   - its result is not live into the header, so no read in the loop
//     sees a value from before the loop or from the previous iteration.
//
// The last also means that no exit where the result is live leaves from
// a node the def does not dominate: a path from the header to that node
// avoiding the def would carry the value from before the loop out to
// the read, so the value would be live into the header. So no path
// leaves the loop with the hoisted value where it used to leave with
// the value from before.
func (lp *loopState) hoistable(in *ir.Inst, h int) bool {
	switch c := in.Op.Class(); {
	case c == ir.ClassAddress && in.Op != ir.OpVaStart, c == ir.ClassFloatBin, c == ir.ClassConversion:
	case c == ir.ClassIntBin && !in.Op.MayFault():
	default:
		return false
	}
	if in.Res == ir.NoValue || lp.defs[in.Res] != 1 || lp.liveAt(h, in.Res) {
		return false
	}
	for _, a := range in.Args {
		if lp.operand(a, h) == varying {
			return false
		}
	}
	return true
}

// scaledIndex reports whether in is a multiply by 1, 2, 4 or 8 or a
// shift by 0 to 3 whose one use is an add read only as load and store
// addresses: prepass folds it into those accesses' memory operands as a
// scaled index, unless the add moves without it.
func (lp *loopState) scaledIndex(f *ir.Func, in *ir.Inst) bool {
	var c int64
	switch {
	case in.Op != ir.OpMul && in.Op != ir.OpShl || in.Res == ir.NoValue || lp.uses[in.Res] != 1:
		return false
	case in.Op == ir.OpMul && lp.constValue(in.Args[0], &c):
	case lp.constValue(in.Args[1], &c):
	default:
		return false
	}
	if in.Op == ir.OpMul && c != 1 && c != 2 && c != 4 && c != 8 || in.Op == ir.OpShl && (c < 0 || c > 3) {
		return false
	}
	u := lp.user[in.Res]
	return u.Op == ir.OpAdd && len(u.Args) == 2 && !lp.nonAddr[u.Res]
}

// constValue sets *c to v's value when v is a constant of the loop.
func (lp *loopState) constValue(v ir.Value, c *int64) bool {
	if v == ir.NoValue || lp.defsIn(v) != 1 || lp.defInst[v].Op != ir.OpConst {
		return false
	}
	*c = lp.defInst[v].Imm
	return true
}

// countUses fills the function-wide use facts.
func (lp *loopState) countUses(f *ir.Func) {
	n := f.NumValues()
	clear(lp.uses[:n])
	clear(lp.nonAddr[:n])
	for _, b := range f.Blocks {
		for _, in := range b.Insts {
			for i, a := range in.Args {
				if a == ir.NoValue {
					continue
				}
				lp.uses[a]++
				lp.user[a] = in
				if i != 0 || in.Op.Class() != ir.ClassMemory || in.Op == ir.OpStore && in.Args[1] == a {
					lp.nonAddr[a] = true
				}
			}
		}
	}
}

// licm hoists the loop's invariant instructions (see hoistable) into its
// preheader, in order, cloning the constants they read there.
func (s *scratch) licm(f *ir.Func, h int) bool {
	lp := &s.lp
	lp.moved = lp.moved[:0]
	for _, v := range lp.body {
		for i, in := range lp.node[v].Insts {
			if lp.hoistable(in, h) {
				lp.hoisted[in.Res] = lp.stamp
				lp.moved = append(lp.moved, int32(v), int32(i))
			}
		}
	}
	if len(lp.moved) == 0 {
		return false
	}
	// A scaled index stays with its add unless the add moves too. Its
	// one use is that add, so nothing hoisted reads it.
	kept := 0
	for j := 0; j < len(lp.moved); j += 2 {
		in := lp.node[lp.moved[j]].Insts[lp.moved[j+1]]
		if lp.scaledIndex(f, in) && lp.hoisted[lp.user[in.Res].Res] != lp.stamp {
			lp.hoisted[in.Res] = 0
			continue
		}
		lp.moved[kept], lp.moved[kept+1] = lp.moved[j], lp.moved[j+1]
		kept += 2
	}
	lp.moved = lp.moved[:kept]
	if kept == 0 {
		return false
	}
	for j := 0; j < len(lp.moved); j += 2 {
		b := lp.node[lp.moved[j]]
		in := b.Insts[lp.moved[j+1]]
		for i, a := range in.Args {
			in.Args[i] = lp.availIn(f, a, h)
		}
		lp.pre = append(lp.pre, in)
		b.Insts[lp.moved[j+1]] = nil
	}
	for j := 0; j < len(lp.moved); j += 2 {
		if b := lp.node[lp.moved[j]]; j == 0 || lp.moved[j] != lp.moved[j-2] {
			b.Insts = slices.DeleteFunc(b.Insts, func(in *ir.Inst) bool { return in == nil })
		}
	}
	lp.spliceInto(h)
	return true
}

// biv describes a basic induction variable k: its one def in the loop,
// def, in node node, steps it by step, and the narrowest trunc on the
// way has width bytes (8 without one).
type biv struct {
	def   *ir.Inst
	node  int32
	step  int64
	width int
}

// inductionVar reports whether k is a basic induction variable of the
// loop headed by h: its one def in the loop, in a node that dominates
// every latch, is k = k ± c for a constant c, possibly through copies and
// truncs, each defined once in the loop, earlier in the same block.
func (lp *loopState) inductionVar(f *ir.Func, k ir.Value, h int) (biv, bool) {
	if k == ir.NoValue || lp.defsIn(k) != 1 || !f.ValueType(k).IsInteger() {
		return biv{}, false
	}
	iv := biv{def: lp.defInst[k], node: lp.defNode[k], width: 8}
	for _, l := range lp.latches {
		if !lp.loops.Dominates(int(iv.node), l) {
			return biv{}, false
		}
	}
	in, idx := iv.def, lp.defIdx[k]
	for range 4 {
		switch in.Op {
		case ir.OpAdd, ir.OpSub:
			var c int64
			switch {
			case len(in.Args) != 2:
			case in.Args[0] == k && lp.operand(in.Args[1], h) == constant && lp.constValue(in.Args[1], &c):
				iv.step = c
				if in.Op == ir.OpSub {
					iv.step = -c
				}
				return iv, true
			case in.Op == ir.OpAdd && in.Args[1] == k && lp.operand(in.Args[0], h) == constant &&
				lp.constValue(in.Args[0], &c):
				iv.step = c
				return iv, true
			}
			return biv{}, false
		case ir.OpTrunc:
			if !in.Ty.IsInteger() || !f.ValueType(in.Args[0]).IsInteger() {
				return biv{}, false
			}
			iv.width = min(iv.width, in.Ty.SizeOf())
		case ir.OpCopy:
		default:
			return biv{}, false
		}
		t := in.Args[0]
		if t == ir.NoValue || lp.defsIn(t) != 1 || lp.defNode[t] != iv.node || lp.defIdx[t] >= idx {
			return biv{}, false
		}
		in, idx = lp.defInst[t], lp.defIdx[t]
	}
	return biv{}, false
}

// srCand is one product to strength-reduce: r computes k*x, or k*x + y
// when y is not NoValue, with x and y invariant or constant. xc holds x's
// value when xConst.
type srCand struct {
	r      *ir.Inst
	k      ir.Value
	iv     biv
	x, y   ir.Value
	xConst bool
	xc     int64
}

// strengthReduce replaces each product k*x and k*x + y of the loop, for
// a basic induction variable k and x and y invariant or constant, with a
// new value: set to k*x (+ y) in the preheader and stepped by the
// product of k's step and x right after k's def, so that it equals the
// product wherever k is read in the loop. The new value has the
// replaced result's type, so taint inference decides it alike, and the
// replaced instruction becomes a copy of it. When k's update goes
// through a trunc, the new value is truncated to its type after each
// step; that needs k's trunc at least as wide, so that wrapping commutes
// with the multiply and the add, and every value read is the same.
//
// A product is left alone where it costs no more than the add it would
// become: a multiply by a power of two, with no add of y, is a shift; and
// a multiply by a scale that prepass folds into a memory operand with y
// as the base (scaledIndex) costs nothing.
func (s *scratch) strengthReduce(f *ir.Func, h int) bool {
	lp := &s.lp
	lp.srs = lp.srs[:0]
	for _, v := range lp.body {
		for i, in := range lp.node[v].Insts {
			if in.Op != ir.OpMul || len(in.Args) != 2 || in.Res == ir.NoValue {
				continue
			}
			for swap := range 2 {
				k, x := in.Args[swap], in.Args[1-swap]
				if c, ok := lp.srCandidate(f, in, int32(v), int32(i), k, x, h); ok {
					lp.srs = append(lp.srs, c)
					break
				}
			}
		}
	}
	for i := range lp.srs {
		lp.reduce(f, &lp.srs[i], h)
	}
	lp.spliceInto(h)
	return len(lp.srs) > 0
}

// srCandidate reports whether p = k * x, the i-th instruction of node v,
// is a product to reduce (see strengthReduce), and returns it.
func (lp *loopState) srCandidate(f *ir.Func, p *ir.Inst, v, i int32, k, x ir.Value, h int) (srCand, bool) {
	iv, ok := lp.inductionVar(f, k, h)
	if !ok {
		return srCand{}, false
	}
	c := srCand{r: p, k: k, iv: iv, x: x, y: ir.NoValue}
	switch lp.operand(x, h) {
	case varying:
		return srCand{}, false
	case constant:
		c.xConst = lp.constValue(x, &c.xc)
		if !c.xConst {
			return srCand{}, false // a float constant
		}
	}
	// k*x + y: the add is p's one use, perhaps through copies, each
	// defined once, later in the same block, with no def of k in between,
	// so the add reads the product of the k it adds to.
	// (A value the loop passes made has no use facts: uses is 0.)
	var q *ir.Inst
	u, last := p.Res, i
	for lp.uses[u] == 1 {
		q = lp.user[u]
		if q.Res == ir.NoValue || lp.defsIn(q.Res) != 1 || lp.defInst[q.Res] != q ||
			lp.defNode[q.Res] != v || lp.defIdx[q.Res] <= last || q.Op != ir.OpCopy {
			break
		}
		u, last, q = q.Res, lp.defIdx[q.Res], nil
	}
	if q != nil && q.Op == ir.OpAdd && len(q.Args) == 2 && q.Res != ir.NoValue &&
		lp.defsIn(q.Res) == 1 && lp.defInst[q.Res] == q && lp.defNode[q.Res] == v && lp.defIdx[q.Res] > last &&
		!(iv.node == v && lp.defIdx[k] > i && lp.defIdx[k] < lp.defIdx[q.Res]) {
		y := q.Args[0]
		if y == u {
			y = q.Args[1]
		}
		if y != u && lp.operand(y, h) != varying && f.ValueType(q.Res).IsInteger() {
			if lp.scaledIndex(f, p) {
				return srCand{}, false
			}
			c.r, c.y = q, y
		}
	}
	if c.y == ir.NoValue && c.xConst && c.xc&(c.xc-1) == 0 {
		return srCand{}, false // a shift, or 0
	}
	t := f.ValueType(c.r.Res)
	if !t.IsInteger() || iv.width < 8 && iv.width < t.SizeOf() {
		return srCand{}, false
	}
	return c, true
}

// reduce applies one strength reduction.
func (lp *loopState) reduce(f *ir.Func, c *srCand, h int) {
	t := f.ValueType(c.r.Res)
	sv := f.NewValue(t)
	newConst := func(imm int64) *ir.Inst {
		return &ir.Inst{Op: ir.OpConst, Res: f.NewValue(t), Imm: imm, Ty: t, Pos: c.r.Pos}
	}
	// The preheader: sv = k*x (+ y).
	x := lp.availIn(f, c.x, h)
	lp.pre = append(lp.pre, &ir.Inst{Op: ir.OpMul, Res: sv, Args: []ir.Value{c.k, x}, Pos: c.r.Pos})
	if c.y != ir.NoValue {
		y := lp.availIn(f, c.y, h)
		lp.pre = append(lp.pre, &ir.Inst{Op: ir.OpAdd, Res: sv, Args: []ir.Value{sv, y}, Pos: c.r.Pos})
	}
	// The step, right after k's def: sv += step*x.
	var step []*ir.Inst
	op, by := ir.OpAdd, x
	switch {
	case c.xConst:
		k := newConst(c.iv.step * c.xc)
		step, by = append(step, k), k.Res
	case c.iv.step == 1:
	case c.iv.step == -1:
		op = ir.OpSub
	default:
		k := newConst(c.iv.step)
		by = f.NewValue(t)
		lp.pre = append(lp.pre, k, &ir.Inst{Op: ir.OpMul, Res: by, Args: []ir.Value{x, k.Res}, Pos: c.r.Pos})
	}
	step = append(step, &ir.Inst{Op: op, Res: sv, Args: []ir.Value{sv, by}, Pos: c.r.Pos})
	if c.iv.width < 8 {
		step = append(step, &ir.Inst{Op: ir.OpTrunc, Res: sv, Args: []ir.Value{sv}, Ty: t, Pos: c.r.Pos})
	}
	b := lp.node[c.iv.node]
	at := slices.Index(b.Insts, c.iv.def) + 1
	b.Insts = slices.Insert(b.Insts, at, step...)
	*c.r = ir.Inst{Op: ir.OpCopy, Res: c.r.Res, Args: []ir.Value{sv}, Ty: t, Pos: c.r.Pos}
}
