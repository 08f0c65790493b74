// Package regalloc implements a taint-aware linear-scan register allocator
// over the IR's virtual registers.
//
// Taint awareness (paper §4, §5.1):
//
//   - callee-saved registers must hold public taints at call boundaries
//     (ConfLLVM makes callers save/clear private callee-saved registers;
//     we achieve the same invariant by never assigning private values to
//     callee-saved registers at all);
//   - spilled private values go to the private stack, public ones to the
//     public stack — the allocator labels each spill slot with its taint.
//
// Move hints (Wimmer & Mössenböck, "Optimized Interval Splitting in a
// Linear Scan Register Allocator", VEE 2005): when a value is defined by
// a non-call whose first operand's interval ends at that definition, the
// value takes the operand's register, so copies and two-address ops need
// no move. The hint is taken only when that register is in the value's
// own pool, so it never carries a private value into a callee-saved
// register, nor a public value live across a call into a caller-saved
// one; the taint rule above is never traded for a saved move.
//
// Spill choice (Poletto & Sarkar, "Linear Scan Register Allocation",
// TOPLAS 1999, weighted by loop depth): every value has a spill weight,
// its uses plus its definitions, each counted as 8^depth. A position's
// depth is the number of back edges whose layout range covers it — a
// branch from block b to a block at or before b covers every position in
// between — capped at 6. When no register of an interval's pool is free,
// the cheapest of the interval itself and the active intervals of its
// float-ness that hold a register of its pool is spilled for its whole
// life, a tie going to the one that ends last; an evicted active
// interval's register passes to the arriving one. Since only a register
// of the arriving value's own pool is ever handed over, eviction keeps
// the taint rule: a private value never takes a callee-saved register, a
// public value live across a call never takes a caller-saved one, a
// private value live across a call still goes straight to the private
// stack, and an evicted value's slot takes that value's own taint.
//
// R10 and R11 are reserved as instrumentation scratch registers and are
// never allocated.
package regalloc

import (
	"math/bits"
	"slices"
	"sort"

	"confllvm/internal/asm"
	"confllvm/internal/ir"
)

// LocKind discriminates value locations.
type LocKind uint8

const (
	LocNone LocKind = iota
	LocReg          // general-purpose register
	LocFReg         // floating-point register
	LocSlot         // spill slot (8 bytes) on the public or private stack
)

// Loc is the assigned location of a virtual register.
type Loc struct {
	Kind    LocKind
	Reg     asm.Reg
	FReg    asm.FReg
	Slot    int // slot index within its stack's spill area
	Private bool
	IsFloat bool
}

// Result is the allocation for one function.
type Result struct {
	Locs            []Loc
	PubSlots        int // public spill slots used
	PrivSlots       int // private spill slots used
	UsedCalleeSaved []asm.Reg
	// MaxCallArgs is the largest argument count of any call in the
	// function (for sizing the outgoing-argument area).
	MaxCallArgs int
	HasCall     bool
}

// pools: private values may only live in caller-saved registers.
var (
	calleeSavedPool = []asm.Reg{asm.RBX, asm.RSI, asm.RDI, asm.R12, asm.R13, asm.R14, asm.R15}
	callerSavedPool = []asm.Reg{asm.RAX, asm.RCX, asm.RDX, asm.R8, asm.R9}
	fregPool        = []asm.FReg{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}
)

// ScratchA and ScratchB are the reserved instrumentation scratch registers.
const (
	ScratchA = asm.R10
	ScratchB = asm.R11
)

// ScratchFA and ScratchFB are the reserved floating-point scratch registers.
const (
	ScratchFA = asm.FReg(14)
	ScratchFB = asm.FReg(15)
)

type interval struct {
	v           ir.Value
	start, end  int
	crossesCall bool
	private     bool
	isFloat     bool
	weight      int64 // spill weight: uses and defs, each 8^loop depth
}

// maxLoopDepth caps the loop depth of a position, so spill weights stay
// far from overflow however deeply loops nest.
const maxLoopDepth = 6

// defaultPool serves public values that do not cross a call: caller-saved
// first, to keep callee-saved pushes rare.
var defaultPool = append(append([]asm.Reg{}, callerSavedPool...), calleeSavedPool...)

// Allocate runs linear scan on f. isPrivate reports the resolved taint of a
// vreg; isFloat reports whether the vreg holds a float64.
//
// Per-block state lives in slices indexed by block ID, sized by the
// largest ID. That relies on IDs being dense: the IR hands them out in
// creation order from 0 (ir.Func.NewBlock), and CFG simplification only
// removes blocks, so no ID exceeds the number of blocks ever created.
//
// Intervals are sorted with sort.Slice by (start, end) from ascending
// vreg order. Intervals with equal (start, end) exist, and sort.Slice is
// not stable: which of two tied intervals is scanned first decides their
// registers. Every emitted image depends on that order, so the call, its
// comparator and its input order must stay exactly as they are; a stable
// or hand-written sort would reorder ties and change register assignment.
func Allocate(f *ir.Func, isPrivate func(ir.Value) bool, isFloat func(ir.Value) bool) *Result {
	n := f.NumValues()
	res := &Result{Locs: make([]Loc, n)}

	// Linearize instructions: each block covers positions
	// [blockStart, blockEnd] in layout order.
	numIDs := 0
	for _, blk := range f.Blocks {
		if blk.ID >= numIDs {
			numIDs = blk.ID + 1
		}
	}
	blockStart := make([]int, numIDs)
	blockEnd := make([]int, numIDs)
	numInsts := 0
	for _, blk := range f.Blocks {
		numInsts += len(blk.Insts)
	}
	pos := 0
	var callPos []int                      // ascending
	insts := make([]*ir.Inst, 0, numInsts) // by position
	for _, blk := range f.Blocks {
		blockStart[blk.ID] = pos
		for _, in := range blk.Insts {
			insts = append(insts, in)
			if in.Op.Class() == ir.ClassCall {
				callPos = append(callPos, pos)
				res.HasCall = true
				na := len(in.Args)
				if in.Op == ir.OpICall {
					na--
				}
				if na > res.MaxCallArgs {
					res.MaxCallArgs = na
				}
			}
			pos++
		}
		blockEnd[blk.ID] = pos - 1
	}
	if n == 0 {
		return res
	}

	// Liveness analysis (backwards dataflow over blocks). The four bit
	// sets of every block share one backing array.
	words := (n + 63) / 64
	backing := make([]uint64, 4*words*len(f.Blocks))
	newSet := func() []uint64 {
		s := backing[:words:words]
		backing = backing[words:]
		return s
	}
	set := func(s []uint64, v ir.Value) { s[v/64] |= 1 << (uint(v) % 64) }
	get := func(s []uint64, v ir.Value) bool { return s[v/64]&(1<<(uint(v)%64)) != 0 }

	use := make([][]uint64, numIDs)
	def := make([][]uint64, numIDs)
	liveIn := make([][]uint64, numIDs)
	liveOut := make([][]uint64, numIDs)
	succs := make([][]int, len(f.Blocks))
	for i, blk := range f.Blocks {
		u, d := newSet(), newSet()
		for _, in := range blk.Insts {
			for _, a := range in.Args {
				if a != ir.NoValue && !get(d, a) {
					set(u, a)
				}
			}
			if in.Res != ir.NoValue && !get(u, in.Res) {
				set(d, in.Res)
			}
		}
		use[blk.ID], def[blk.ID] = u, d
		liveIn[blk.ID], liveOut[blk.ID] = newSet(), newSet()
		succs[i] = blk.Succs()
	}
	// Parameters are defined at entry.
	changed := true
	for changed {
		changed = false
		for i := len(f.Blocks) - 1; i >= 0; i-- {
			id := f.Blocks[i].ID
			out := liveOut[id]
			for _, s := range succs[i] {
				sIn := liveIn[s]
				for w := range out {
					nv := out[w] | sIn[w]
					if nv != out[w] {
						out[w] = nv
						changed = true
					}
				}
			}
			in, u, d := liveIn[id], use[id], def[id]
			for w := range in {
				nv := u[w] | (out[w] &^ d[w])
				if nv != in[w] {
					in[w] = nv
					changed = true
				}
			}
		}
	}

	// Loop depth of each position: the number of back edges (a branch
	// from a block to one at or before it in layout order) whose range
	// [target start, source end] covers it, capped at maxLoopDepth.
	// Spill weights count each use and def as 8^depth.
	layoutIdx := make([]int, numIDs)
	for i, blk := range f.Blocks {
		layoutIdx[blk.ID] = i
	}
	depthDelta := make([]int, numInsts+1)
	for i, blk := range f.Blocks {
		for _, s := range succs[i] {
			if layoutIdx[s] <= i {
				depthDelta[blockStart[s]]++
				depthDelta[blockEnd[blk.ID]+1]--
			}
		}
	}
	weights := make([]int64, n)
	depth := 0
	for p, in := range insts {
		depth += depthDelta[p]
		w := int64(1) << (3 * min(depth, maxLoopDepth))
		for _, a := range in.Args {
			if a != ir.NoValue {
				weights[a] += w
			}
		}
		if in.Res != ir.NoValue {
			weights[in.Res] += w
		}
	}
	entry := int64(1) << (3 * min(depthDelta[0], maxLoopDepth))
	for _, pv := range f.ParamRegs {
		weights[pv] += entry // defined by the prologue
	}

	// Build single covering intervals.
	starts := make([]int, n)
	ends := make([]int, n)
	for i := range starts {
		starts[i] = -1
	}
	touch := func(v, p int) {
		if starts[v] == -1 || p < starts[v] {
			starts[v] = p
		}
		if p > ends[v] {
			ends[v] = p
		}
	}
	// touchSet touches every value in bit set s at p.
	touchSet := func(s []uint64, p int) {
		for w, word := range s {
			for word != 0 {
				touch(w*64+bits.TrailingZeros64(word), p)
				word &= word - 1
			}
		}
	}
	pos = 0
	for _, blk := range f.Blocks {
		for _, in := range blk.Insts {
			for _, a := range in.Args {
				if a != ir.NoValue {
					touch(int(a), pos)
				}
			}
			if in.Res != ir.NoValue {
				touch(int(in.Res), pos)
			}
			pos++
		}
	}
	for _, blk := range f.Blocks {
		touchSet(liveIn[blk.ID], blockStart[blk.ID])
		touchSet(liveOut[blk.ID], blockEnd[blk.ID])
	}
	for _, pv := range f.ParamRegs {
		touch(int(pv), 0)
	}

	live := 0
	for _, s := range starts {
		if s != -1 {
			live++
		}
	}
	store := make([]interval, 0, live)
	ivs := make([]*interval, 0, live)
	for v := 0; v < n; v++ {
		if starts[v] == -1 {
			continue
		}
		// The interval crosses a call iff some call sits in [start, end).
		c := sort.SearchInts(callPos, starts[v])
		store = append(store, interval{v: ir.Value(v), start: starts[v], end: ends[v],
			crossesCall: c < len(callPos) && callPos[c] < ends[v],
			private:     isPrivate(ir.Value(v)), isFloat: isFloat(ir.Value(v)),
			weight: weights[v]})
		ivs = append(ivs, &store[len(store)-1])
	}
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].start != ivs[j].start {
			return ivs[i].start < ivs[j].start
		}
		return ivs[i].end < ivs[j].end
	})

	// Linear scan with three pools.
	type active struct {
		iv  *interval
		reg asm.Reg
		fr  asm.FReg
	}
	act := make([]active, 0, len(defaultPool)+len(fregPool))
	var freeGPR, usedCS [asm.NumRegs]bool
	var freeFP [asm.NumFRegs]bool
	for _, r := range defaultPool {
		freeGPR[r] = true
	}
	for _, r := range fregPool {
		freeFP[r] = true
	}

	expire := func(p int) {
		out := act[:0]
		for _, a := range act {
			if a.iv.end < p {
				if a.iv.isFloat {
					freeFP[a.fr] = true
				} else {
					freeGPR[a.reg] = true
				}
			} else {
				out = append(out, a)
			}
		}
		act = out
	}

	// hint finds the move-related register hint of iv (Wimmer &
	// Mössenböck): when iv's value is defined at iv.start by a non-call
	// whose first operand's interval ends there, the operand's register
	// can carry the result with no move. It returns the operand's index in
	// act, or -1.
	hint := func(iv *interval) int {
		in := insts[iv.start]
		if in.Res != iv.v || in.Op.Class() == ir.ClassCall || len(in.Args) == 0 {
			return -1
		}
		a := in.Args[0]
		if a == ir.NoValue || a == iv.v || ends[a] != iv.start {
			return -1
		}
		for i, e := range act {
			if e.iv.v == a && e.iv.isFloat == iv.isFloat {
				return i
			}
		}
		return -1
	}

	spill := func(iv *interval) {
		var slot int
		if iv.private {
			slot = res.PrivSlots
			res.PrivSlots++
		} else {
			slot = res.PubSlots
			res.PubSlots++
		}
		res.Locs[iv.v] = Loc{Kind: LocSlot, Slot: slot, Private: iv.private, IsFloat: iv.isFloat}
	}

	// evict runs when no register of iv's pool is free (Poletto & Sarkar,
	// weighted by loop depth): the cheapest of iv and the active intervals
	// of iv's float-ness whose register is in pool (ignored for floats)
	// is spilled for its whole life, a tie going to the one that ends
	// last. It returns the index in act whose register iv now takes, or
	// -1 when iv itself was spilled. Only a register of iv's own pool is
	// ever handed over, so the pool rules hold for iv, and the evicted
	// value's slot takes its own taint.
	evict := func(iv *interval, pool []asm.Reg) int {
		victim, w, end := -1, iv.weight, iv.end
		for i, a := range act {
			if a.iv.isFloat != iv.isFloat || !iv.isFloat && !slices.Contains(pool, a.reg) {
				continue
			}
			if a.iv.weight < w || a.iv.weight == w && a.iv.end > end {
				victim, w, end = i, a.iv.weight, a.iv.end
			}
		}
		if victim < 0 {
			spill(iv)
		} else {
			spill(act[victim].iv)
		}
		return victim
	}

	for _, iv := range ivs {
		expire(iv.start)
		if iv.isFloat {
			if iv.crossesCall {
				spill(iv) // no callee-saved FP registers in our model
				continue
			}
			if h := hint(iv); h >= 0 {
				r := act[h].fr
				res.Locs[iv.v] = Loc{Kind: LocFReg, FReg: r, Private: iv.private, IsFloat: true}
				act[h] = active{iv, 0, r}
				continue
			}
			assigned := false
			for _, r := range fregPool {
				if freeFP[r] {
					freeFP[r] = false
					res.Locs[iv.v] = Loc{Kind: LocFReg, FReg: r, Private: iv.private, IsFloat: true}
					act = append(act, active{iv, 0, r})
					assigned = true
					break
				}
			}
			if !assigned {
				if k := evict(iv, nil); k >= 0 {
					r := act[k].fr
					res.Locs[iv.v] = Loc{Kind: LocFReg, FReg: r, Private: iv.private, IsFloat: true}
					act[k] = active{iv, 0, r}
				}
			}
			continue
		}
		// Integer/pointer value: choose an allowed pool.
		var pool []asm.Reg
		switch {
		case iv.private && iv.crossesCall:
			pool = nil // private across a call: must be in private memory
		case iv.private:
			pool = callerSavedPool
		case iv.crossesCall:
			pool = calleeSavedPool
		default:
			pool = defaultPool
		}
		// The hint is taken only inside the pool, so it never moves a
		// private value into a callee-saved register, nor a public value
		// that crosses a call into a caller-saved one.
		if h := hint(iv); h >= 0 && slices.Contains(pool, act[h].reg) {
			r := act[h].reg
			res.Locs[iv.v] = Loc{Kind: LocReg, Reg: r, Private: iv.private}
			act[h] = active{iv, r, 0}
			continue
		}
		assigned := false
		for _, r := range pool {
			if freeGPR[r] {
				freeGPR[r] = false
				res.Locs[iv.v] = Loc{Kind: LocReg, Reg: r, Private: iv.private}
				if asm.IsCalleeSaved(r) {
					usedCS[r] = true
				}
				act = append(act, active{iv, r, 0})
				assigned = true
				break
			}
		}
		if !assigned {
			if k := evict(iv, pool); k >= 0 {
				r := act[k].reg
				res.Locs[iv.v] = Loc{Kind: LocReg, Reg: r, Private: iv.private}
				act[k] = active{iv, r, 0}
			}
		}
	}

	for _, r := range calleeSavedPool {
		if usedCS[r] {
			res.UsedCalleeSaved = append(res.UsedCalleeSaved, r)
		}
	}
	return res
}
