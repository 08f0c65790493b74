// Package regalloc is a taint-aware graph-coloring register allocator
// over the IR's virtual registers: Chaitin–Briggs with iterated
// conservative coalescing (George & Appel, "Iterated Register
// Coalescing", TOPLAS 1996; Briggs, Cooper & Torczon, "Improvements to
// Graph Coloring Register Allocation", TOPLAS 1994).
//
// Taint awareness (paper §4, §5.1) is a register mask on every value, so
// the invariant holds by construction:
//
//   - a private value gets caller-saved registers only (ConfLLVM makes
//     callers save and clear private callee-saved registers; we get the
//     same invariant by never placing a private value in one);
//   - a value live after a call, other than the call's result, gets
//     callee-saved registers only;
//   - a private value live across a call, and any float live across a
//     call (the model has no callee-saved FP registers), gets no register
//     and lives in a spill slot;
//   - a spill slot takes its value's own taint: private values spill to
//     the private stack, public ones to the public stack.
//
// Codegen spills everywhere: every use of a spilled value reloads it
// through the reserved scratch registers R10/R11 (xmm14/15 for floats)
// and every definition stores it, so a spill needs no new live ranges and
// the graph is colored once.
//
// The interference graph is built from per-instruction liveness: a
// definition interferes with every value of its register file live after
// it, except the source of a copy. A two-address op's result also
// interferes with its second operand unless the op is commutative, so
// d = a - b never needs d's register to hold b. The parameters and the
// values live into the entry block interfere with each other, as the
// prologue defines them all at once.
//
// Coalescing merges the result of a copy, an integer bitcast or a trunc
// with its operand, and the result of a two-address op with its first
// operand (or its second, when the op is commutative). Only values of
// equal privacy and float-ness merge, the merged mask is the
// intersection, and a merge is made only when the Briggs or the George
// test says it cannot make the graph uncolorable.
//
// Colors are chosen by preference: a parameter prefers its argument
// register, a call argument the argument register it is passed in, a call
// result and a returned value rax, and any value the registers of the
// copy-related values already colored, each weighted like a spill cost.
// Without a preference a value not live across a call tries caller-saved
// registers first, and one live across a call tries the callee-saved
// registers the function already saves.
//
// Spill choice (when no node is trivially colorable) takes the least
// cost per degree, where cost counts each use and def as 8^depth and the
// loop depth comes from internal/cfg's loop nest. A value whose only uses
// directly follow its single definition in the same block costs
// infinitely: spilling it frees nothing.
//
// R10 and R11 are reserved as instrumentation scratch registers and are
// never allocated.
package regalloc

import (
	"math"
	"math/bits"
	"sync"

	"confllvm/internal/asm"
	"confllvm/internal/cfg"
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

// The allocatable registers. Private values may only live in
// caller-saved registers.
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

// regMask is a set of registers of one file: bit r is asm.Reg r or
// asm.FReg r.
type regMask uint32

func maskOf[R asm.Reg | asm.FReg](rs []R) regMask {
	var m regMask
	for _, r := range rs {
		m |= 1 << r
	}
	return m
}

var (
	callerSavedMask = maskOf(callerSavedPool)
	calleeSavedMask = maskOf(calleeSavedPool)
	fregMask        = maskOf(fregPool)
)

// maxLoopDepth caps the loop depth of a position, so spill weights stay
// far from overflow however deeply loops nest.
const maxLoopDepth = 6

// Node flags.
const (
	flPrivate uint8 = 1 << iota
	flFloat
	flCrosses // live after a call that does not define it
	flDefLast // its last def ends its block
	flLong    // used by two instructions, or merged: never a short range
)

// Node states: the worklist a node is on, or what became of it.
const (
	stMem      uint8 = iota // no register allowed: lives in a spill slot
	stSimplify              // low degree, not move-related
	stFreeze                // low degree, move-related
	stSpill                 // high degree
	stStack                 // removed, awaiting a color
	stCoalesced
	stColored
	stSpilled
)

// Move states.
const (
	mvWorklist uint8 = iota
	mvActive
	mvCoalesced
	mvConstrained
	mvFrozen
)

// move is a coalescing candidate: merging a and b deletes a copy or lets
// a two-address op run in place.
type move struct {
	a, b  int32
	w     int64 // 8^depth of the instruction
	state uint8
}

// pref is a register a node prefers, with its weight.
type pref struct {
	n   int32
	reg asm.Reg
	w   int64
}

// allocator holds one Allocate call's working state. Its slices keep
// their capacity from call to call (see pool), so allocating a function
// mostly allocates its Result.
type allocator struct {
	node []int32 // value -> node, or -1

	// Per node.
	val    []ir.Value
	flags  []uint8
	defs   []int32 // definitions, the prologue's included
	defPos []int32 // position of the last definition; then the slot of a spilled node
	useLo  []int32 // first and last use position, -1 if unused
	useHi  []int32
	cost   []int64 // spill cost: uses and defs, each 8^depth
	mask   []regMask
	k      []int32 // colors in mask
	degree []int32
	state  []uint8
	alias  []int32 // the node a coalesced node merged into
	next   []int32 // circular list of the nodes merged together
	color  []int8
	top    []int8    // x's most preferred register, or -1
	want   []regMask // the registers x's merged nodes prefer
	fill   []int32   // scratch for building moveIdx and prefs

	// Coalescing candidates and register preferences, indexed by node.
	moves   []move
	nmoves  []int32 // moves on the worklist or active, per representative
	moveOff []int32 // moveIdx[moveOff[x]:moveOff[x+1]] are x's moves
	moveIdx []int32
	order   []int32 // the move worklist, heaviest last
	prefs   []pref
	prefBuf []pref
	prefOff []int32 // prefs[prefOff[x]:prefOff[x+1]] are x's preferences

	// Node worklists. An entry whose node has changed state is stale and
	// skipped.
	simplify, freeze, spill, stack []int32

	// Bit sets over nodes, words words each, all in bits: per block
	// use, def, live-in and live-out; then live, floats and inGraph; then
	// one row of the interference matrix per node.
	words                 int
	bits                  []uint64
	live, floats, inGraph []uint64
	rows                  int // offset of row 0 in bits

	// The CFG by layout index, and its loop nest.
	blkIdx  []int32 // block ID -> layout index, or -1
	succOff []int
	succBk  []int
	succs   [][]int
	loops   cfg.Loops
}

var pool = sync.Pool{New: func() any { return new(allocator) }}

// resize returns s with length n and every element zero, reusing its
// capacity.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Allocate assigns every value of f a location. isPrivate reports the
// resolved taint of a vreg; isFloat reports whether it holds a float64.
// f.Sig may be nil: the parameters are then all register parameters.
func Allocate(f *ir.Func, isPrivate func(ir.Value) bool, isFloat func(ir.Value) bool) *Result {
	a := pool.Get().(*allocator)
	res := a.run(f, isPrivate, isFloat)
	pool.Put(a)
	return res
}

func setBit(s []uint64, i int32)      { s[i>>6] |= 1 << (uint(i) & 63) }
func clearBit(s []uint64, i int32)    { s[i>>6] &^= 1 << (uint(i) & 63) }
func hasBit(s []uint64, i int32) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }

// row returns x's row of the interference matrix.
func (a *allocator) row(x int32) []uint64 {
	o := a.rows + int(x)*a.words
	return a.bits[o : o+a.words : o+a.words]
}

// blockSet returns set k (use, def, in, out) of block b.
func (a *allocator) blockSet(b, k int) []uint64 {
	o := (4*b + k) * a.words
	return a.bits[o : o+a.words : o+a.words]
}

const useSet, defSet, inSet, outSet = 0, 1, 2, 3

// addEdges makes x interfere with every node of its register file in s.
func (a *allocator) addEdges(x int32, s []uint64) {
	r := a.row(x)
	if a.flags[x]&flFloat != 0 {
		for j := range r {
			r[j] |= s[j] & a.floats[j]
		}
	} else {
		for j := range r {
			r[j] |= s[j] &^ a.floats[j]
		}
	}
}

func (a *allocator) run(f *ir.Func, isPrivate, isFloat func(ir.Value) bool) *Result {
	res := &Result{Locs: make([]Loc, f.NumValues())}
	n := a.number(f, res)
	if n == 0 {
		return res
	}
	nb := len(f.Blocks)
	w := (n + 63) / 64
	a.words = w
	a.flags = resize(a.flags, n)
	a.defs = resize(a.defs, n)
	a.defPos = resize(a.defPos, n)
	a.useLo = resize(a.useLo, n)
	a.useHi = resize(a.useHi, n)
	a.cost = resize(a.cost, n)
	a.bits = resize(a.bits, (4*nb+3+n)*w)
	o := 4 * nb * w
	a.live, a.floats, a.inGraph = a.bits[o:o+w:o+w], a.bits[o+w:o+2*w:o+2*w], a.bits[o+2*w:o+3*w:o+3*w]
	a.rows = o + 3*w
	for x, v := range a.val {
		if isPrivate(v) {
			a.flags[x] |= flPrivate
		}
		if isFloat(v) {
			a.flags[x] |= flFloat
			setBit(a.floats, int32(x))
		}
		a.useLo[x], a.useHi[x] = -1, -1
	}

	a.loops.Analyze(a.blockSuccs(f))
	depth := a.loops.Depth
	weight := func(b int) int64 { return 1 << (3 * min(depth[b], maxLoopDepth)) }
	a.occurrences(f)
	entryW := weight(0)
	for _, p := range f.ParamRegs {
		x := a.node[p]
		a.defs[x]++ // defined by the prologue
		a.cost[x] += entryW
	}
	a.liveness(nb)
	a.build(f, weight)

	// The prologue defines the parameters together, while the values
	// live into the entry block are live too.
	entry := a.live
	copy(entry, a.blockSet(0, inSet))
	nparams := 0
	if f.Sig == nil || !f.Sig.Variadic {
		nparams = len(asm.ArgRegs)
	}
	for i, p := range f.ParamRegs {
		x := a.node[p]
		setBit(entry, x)
		if i < nparams {
			a.addPref(x, asm.ArgRegs[i], entryW)
		}
	}
	for j, word := range entry {
		for ; word != 0; word &= word - 1 {
			a.addEdges(int32(j*64+bits.TrailingZeros64(word)), entry)
		}
	}

	a.masks(n)
	a.setupMoves(n)
	a.color = resize(a.color, n)
	a.alias = resize(a.alias, n)
	a.next = resize(a.next, n)
	a.simplify, a.freeze, a.spill, a.stack = a.simplify[:0], a.freeze[:0], a.spill[:0], a.stack[:0]
	for x := int32(0); x < int32(n); x++ {
		a.alias[x], a.next[x] = x, x
		switch {
		case a.mask[x] == 0:
			a.state[x] = stMem
		case a.degree[x] >= a.k[x]:
			a.push(x, stSpill)
		case a.nmoves[x] > 0:
			a.push(x, stFreeze)
		default:
			a.push(x, stSimplify)
		}
	}

	// The main loop of iterated register coalescing.
	for {
		if x, ok := a.pop(&a.simplify, stSimplify); ok {
			a.state[x] = stStack
			a.stack = append(a.stack, x)
			for j, word := range a.row(x) {
				for ; word != 0; word &= word - 1 {
					a.decrementDegree(int32(j*64 + bits.TrailingZeros64(word)))
				}
			}
		} else if k := len(a.order); k > 0 {
			m := a.order[k-1]
			a.order = a.order[:k-1]
			if a.moves[m].state == mvWorklist {
				a.coalesce(m)
			}
		} else if x, ok := a.pop(&a.freeze, stFreeze); ok {
			a.push(x, stSimplify)
			a.freezeMoves(x)
		} else if x, ok := a.selectSpill(); ok {
			a.push(x, stSimplify)
			a.freezeMoves(x)
		} else {
			break
		}
	}

	usedCS := a.assignColors()
	a.locations(res)
	for _, r := range calleeSavedPool {
		if usedCS&(1<<r) != 0 {
			res.UsedCalleeSaved = append(res.UsedCalleeSaved, r)
		}
	}
	return res
}

// number numbers the values that occur in f, in order of first
// occurrence, and records f's call facts in res. It returns the number
// of nodes: 0 for a function without code, whose parameters need no
// location.
func (a *allocator) number(f *ir.Func, res *Result) int {
	if len(f.Blocks) == 0 {
		return 0
	}
	a.node = resize(a.node, f.NumValues())
	for i := range a.node {
		a.node[i] = -1
	}
	a.val = a.val[:0]
	number := func(v ir.Value) {
		if v != ir.NoValue && a.node[v] < 0 {
			a.node[v] = int32(len(a.val))
			a.val = append(a.val, v)
		}
	}
	for _, blk := range f.Blocks {
		for _, in := range blk.Insts {
			for _, v := range in.Args {
				number(v)
			}
			number(in.Res)
			if in.Op.Class() == ir.ClassCall {
				res.HasCall = true
				na := len(in.Args)
				if in.Op == ir.OpICall {
					na--
				}
				res.MaxCallArgs = max(res.MaxCallArgs, na)
			}
		}
	}
	for _, p := range f.ParamRegs {
		number(p)
	}
	return len(a.val)
}

// blockSuccs returns the successors of each block by layout index. A
// branch to a block f does not have leads nowhere.
func (a *allocator) blockSuccs(f *ir.Func) [][]int {
	maxID := -1
	for _, blk := range f.Blocks {
		maxID = max(maxID, blk.ID)
	}
	a.blkIdx = resize(a.blkIdx, maxID+1)
	for i := range a.blkIdx {
		a.blkIdx[i] = -1
	}
	for i, blk := range f.Blocks {
		a.blkIdx[blk.ID] = int32(i)
	}
	nb := len(f.Blocks)
	a.succOff = resize(a.succOff, nb+1)
	a.succBk = a.succBk[:0]
	for i, blk := range f.Blocks {
		start := len(a.succBk)
		a.succBk = blk.AppendSuccs(a.succBk)
		k := start
		for _, id := range a.succBk[start:] {
			if id >= 0 && id <= maxID && a.blkIdx[id] >= 0 {
				a.succBk[k] = int(a.blkIdx[id])
				k++
			}
		}
		a.succBk = a.succBk[:k]
		a.succOff[i+1] = k
	}
	a.succs = resize(a.succs, nb)
	for i := range a.succs {
		a.succs[i] = a.succBk[a.succOff[i]:a.succOff[i+1]:a.succOff[i+1]]
	}
	return a.succs
}

// occurrences fills the blocks' use and def sets and each node's
// definition count and def and use positions.
func (a *allocator) occurrences(f *ir.Func) {
	pos := int32(0)
	for b, blk := range f.Blocks {
		u, d := a.blockSet(b, useSet), a.blockSet(b, defSet)
		for i, in := range blk.Insts {
			for _, v := range in.Args {
				if v == ir.NoValue {
					continue
				}
				x := a.node[v]
				if !hasBit(d, x) {
					setBit(u, x)
				}
				if a.useHi[x] >= 0 && a.useHi[x] != pos {
					a.flags[x] |= flLong
				}
				if a.useLo[x] < 0 {
					a.useLo[x] = pos
				}
				a.useHi[x] = pos
			}
			if in.Res != ir.NoValue {
				x := a.node[in.Res]
				if !hasBit(u, x) {
					setBit(d, x)
				}
				a.defs[x]++
				a.defPos[x] = pos
				if i == len(blk.Insts)-1 {
					a.flags[x] |= flDefLast
				} else {
					a.flags[x] &^= flDefLast
				}
			}
			pos++
		}
	}
}

// liveness solves the blocks' live-in and live-out sets.
func (a *allocator) liveness(nb int) {
	for changed := true; changed; {
		changed = false
		for b := nb - 1; b >= 0; b-- {
			out := a.blockSet(b, outSet)
			for _, s := range a.succs[b] {
				for i, x := range a.blockSet(s, inSet) {
					if nx := out[i] | x; nx != out[i] {
						out[i] = nx
						changed = true
					}
				}
			}
			in, u, d := a.blockSet(b, inSet), a.blockSet(b, useSet), a.blockSet(b, defSet)
			for i := range in {
				if nx := u[i] | out[i]&^d[i]; nx != in[i] {
					in[i] = nx
					changed = true
				}
			}
		}
	}
}

// addMove records d and s as a coalescing candidate when they agree in
// privacy and float-ness, the only values that may merge.
func (a *allocator) addMove(d, s int32, w int64) {
	if d != s && (a.flags[d]^a.flags[s])&(flPrivate|flFloat) == 0 {
		a.moves = append(a.moves, move{a: d, b: s, w: w})
	}
}

// addPref records that x prefers r; only integer registers carry
// arguments and results.
func (a *allocator) addPref(x int32, r asm.Reg, w int64) {
	if a.flags[x]&flFloat == 0 {
		a.prefs = append(a.prefs, pref{n: x, reg: r, w: w})
	}
}

// build walks each block backwards from its live-out set and records
// interference, call crossings, spill costs, coalescing candidates and
// register preferences.
func (a *allocator) build(f *ir.Func, weight func(int) int64) {
	a.moves = a.moves[:0]
	a.prefs = a.prefs[:0]
	live := a.live
	for b, blk := range f.Blocks {
		copy(live, a.blockSet(b, outSet))
		w := weight(b)
		for i := len(blk.Insts) - 1; i >= 0; i-- {
			in := blk.Insts[i]
			d := int32(-1)
			if in.Res != ir.NoValue {
				d = a.node[in.Res]
			}
			class := in.Op.Class()
			switch {
			case class == ir.ClassCall:
				for j, word := range live {
					for ; word != 0; word &= word - 1 {
						if x := int32(j*64 + bits.TrailingZeros64(word)); x != d {
							a.flags[x] |= flCrosses
						}
					}
				}
				args := in.Args
				if in.Op == ir.OpICall {
					args = args[1:]
				}
				for j, v := range args {
					if j < len(asm.ArgRegs) && v != ir.NoValue {
						a.addPref(a.node[v], asm.ArgRegs[j], w)
					}
				}
				if d >= 0 {
					a.addPref(d, asm.RetReg, w)
				}
			case in.Op == ir.OpRet && len(in.Args) > 0 && in.Args[0] != ir.NoValue:
				a.addPref(a.node[in.Args[0]], asm.RetReg, w)
			}
			if d >= 0 {
				// A copy's source may share d's register even while it
				// stays live.
				src := int32(-1)
				switch {
				case in.Op == ir.OpCopy, in.Op == ir.OpBitcast:
					src = a.node[in.Args[0]]
					a.addMove(d, src, w)
				case in.Op == ir.OpTrunc, class == ir.ClassIntBin, class == ir.ClassFloatBin:
					a.addMove(d, a.node[in.Args[0]], w)
					if len(in.Args) == 2 {
						second := a.node[in.Args[1]]
						if in.Op.Commutative() {
							a.addMove(d, second, w)
						} else if second != d && (a.flags[d]^a.flags[second])&flFloat == 0 {
							setBit(a.row(d), second)
						}
					}
				}
				if src >= 0 && hasBit(live, src) {
					clearBit(live, src)
					a.addEdges(d, live)
					setBit(live, src)
				} else {
					a.addEdges(d, live)
				}
				clearBit(live, d)
				a.cost[d] += w
			}
			for _, v := range in.Args {
				if v != ir.NoValue {
					x := a.node[v]
					setBit(live, x)
					a.cost[x] += w
				}
			}
		}
	}
}

// masks gives each node its register mask from its taint, its float-ness
// and whether it crosses a call, and makes the interference matrix
// symmetric and the degrees count the nodes that take part in coloring.
func (a *allocator) masks(n int) {
	a.mask = resize(a.mask, n)
	a.k = resize(a.k, n)
	a.state = resize(a.state, n)
	a.degree = resize(a.degree, n)
	for x := int32(0); x < int32(n); x++ {
		var m regMask
		switch fl := a.flags[x]; {
		case fl&flCrosses != 0 && fl&(flFloat|flPrivate) != 0:
			m = 0 // no register survives the call
		case fl&flFloat != 0:
			m = fregMask
		case fl&flPrivate != 0:
			m = callerSavedMask
		case fl&flCrosses != 0:
			m = calleeSavedMask
		default:
			m = callerSavedMask | calleeSavedMask
		}
		a.mask[x] = m
		a.k[x] = int32(bits.OnesCount32(uint32(m)))
		if m != 0 {
			setBit(a.inGraph, x)
		}
	}
	// Rows were filled one way (a def's row from the live set) or both.
	// Mirror them, drop the diagonal, and keep only the nodes that take
	// part in coloring, so a row lists exactly a node's neighbors.
	for x := int32(0); x < int32(n); x++ {
		r := a.row(x)
		if a.mask[x] == 0 {
			clear(r)
			continue
		}
		clearBit(r, x)
		for j := range r {
			r[j] &= a.inGraph[j]
			for word := r[j]; word != 0; word &= word - 1 {
				setBit(a.row(int32(j*64+bits.TrailingZeros64(word))), x)
			}
		}
	}
	for x := int32(0); x < int32(n); x++ {
		c := 0
		for _, word := range a.row(x) {
			c += bits.OnesCount64(word)
		}
		a.degree[x] = int32(c)
	}
}

// setupMoves keeps the candidates whose ends both take part in coloring
// and indexes candidates and preferences by node. A candidate whose ends
// interfere is constrained from the start: it only biases colors.
func (a *allocator) setupMoves(n int) {
	ms := a.moves[:0]
	for _, m := range a.moves {
		if a.mask[m.a] != 0 && a.mask[m.b] != 0 {
			ms = append(ms, m)
		}
	}
	a.moves = ms

	// Preferences by node, and each node's preferred registers and most
	// preferred one.
	a.prefOff = resize(a.prefOff, n+1)
	for _, p := range a.prefs {
		a.prefOff[p.n+1]++
	}
	for x := 0; x < n; x++ {
		a.prefOff[x+1] += a.prefOff[x]
	}
	a.fill = resize(a.fill, n)
	fill := a.fill // the next free index of each node's list
	copy(fill, a.prefOff[:n])
	a.prefBuf = resize(a.prefBuf, len(a.prefs))
	for _, p := range a.prefs {
		a.prefBuf[fill[p.n]] = p
		fill[p.n]++
	}
	a.prefs, a.prefBuf = a.prefBuf, a.prefs
	a.top = resize(a.top, n)
	a.want = resize(a.want, n)
	for x := 0; x < n; x++ {
		var acc [asm.NumRegs]int64
		top := int8(-1)
		for _, p := range a.prefs[a.prefOff[x]:a.prefOff[x+1]] {
			a.want[x] |= 1 << p.reg
			if acc[p.reg] += p.w; top < 0 || acc[p.reg] > acc[top] {
				top = int8(p.reg)
			}
		}
		a.top[x] = top
	}

	// Moves by node; the worklist holds the unconstrained ones.
	a.nmoves = resize(a.nmoves, n)
	a.moveOff = resize(a.moveOff, n+1)
	var count [2 * (maxLoopDepth + 1)]int32
	for i := range a.moves {
		m := &a.moves[i]
		a.moveOff[m.a+1]++
		a.moveOff[m.b+1]++
		if hasBit(a.row(m.a), m.b) || a.mask[m.a]&a.mask[m.b] == 0 {
			m.state = mvConstrained
			continue
		}
		m.state = mvWorklist
		a.nmoves[m.a]++
		a.nmoves[m.b]++
		count[a.moveKey(m)]++
	}
	for x := 0; x < n; x++ {
		a.moveOff[x+1] += a.moveOff[x]
	}
	a.moveIdx = resize(a.moveIdx, int(a.moveOff[n]))
	copy(fill, a.moveOff[:n])
	for i, m := range a.moves {
		a.moveIdx[fill[m.a]] = int32(i)
		fill[m.a]++
		a.moveIdx[fill[m.b]] = int32(i)
		fill[m.b]++
	}

	// The worklist pops the heaviest candidate first, of equal ones the
	// first found, but a candidate whose ends prefer different registers
	// only after all the others: merging it serves one preference, while
	// another candidate of either end may serve both. The order is a
	// counting sort by key, each key's candidates last found first.
	var at [len(count)]int32
	for k := 1; k < len(count); k++ {
		at[k] = at[k-1] + count[k-1]
	}
	a.order = resize(a.order, int(at[len(at)-1]+count[len(count)-1]))
	for i := len(a.moves) - 1; i >= 0; i-- {
		if m := &a.moves[i]; m.state == mvWorklist {
			k := a.moveKey(m)
			a.order[at[k]] = int32(i)
			at[k]++
		}
	}
}

// moveKey orders the move worklist: conflicting preferences first (to be
// popped last), then by loop depth.
func (a *allocator) moveKey(m *move) int {
	k := bits.TrailingZeros64(uint64(m.w)) / 3
	if ta, tb := a.top[m.a], a.top[m.b]; ta < 0 || tb < 0 || ta == tb {
		k += maxLoopDepth + 1
	}
	return k
}

// push puts x on the worklist of state st.
func (a *allocator) push(x int32, st uint8) {
	a.state[x] = st
	switch st {
	case stSimplify:
		a.simplify = append(a.simplify, x)
	case stFreeze:
		a.freeze = append(a.freeze, x)
	case stSpill:
		a.spill = append(a.spill, x)
	}
}

// pop takes the last entry of list whose node is still in state st.
func (a *allocator) pop(list *[]int32, st uint8) (int32, bool) {
	l := *list
	for len(l) > 0 {
		x := l[len(l)-1]
		l = l[:len(l)-1]
		if a.state[x] == st {
			*list = l
			return x, true
		}
	}
	*list = l
	return -1, false
}

// find returns the node x was merged into.
func (a *allocator) find(x int32) int32 {
	for a.state[x] == stCoalesced {
		x = a.alias[x]
	}
	return x
}

// decrementDegree removes one neighbor of y, if y is still in the graph.
// When y's degree falls below its color count, the moves of y and of its
// neighbors may coalesce now.
func (a *allocator) decrementDegree(y int32) {
	if st := a.state[y]; st == stStack || st == stCoalesced {
		return
	}
	d := a.degree[y]
	a.degree[y] = d - 1
	if d != a.k[y] || a.state[y] != stSpill {
		return
	}
	a.enableMoves(y)
	for j, word := range a.row(y) {
		for ; word != 0; word &= word - 1 {
			if z := int32(j*64 + bits.TrailingZeros64(word)); a.state[z] != stStack && a.state[z] != stCoalesced {
				a.enableMoves(z)
			}
		}
	}
	if a.nmoves[y] > 0 {
		a.push(y, stFreeze)
	} else {
		a.push(y, stSimplify)
	}
}

// enableMoves puts the active moves of x and the nodes merged into it
// back on the worklist.
func (a *allocator) enableMoves(x int32) {
	if a.nmoves[x] == 0 {
		return
	}
	for m := x; ; {
		for _, i := range a.moveIdx[a.moveOff[m]:a.moveOff[m+1]] {
			if a.moves[i].state == mvActive {
				a.moves[i].state = mvWorklist
				a.order = append(a.order, i)
			}
		}
		if m = a.next[m]; m == x {
			return
		}
	}
}

// retire takes move i off the worklist and out of the active moves.
func (a *allocator) retire(i int32, st uint8) {
	m := &a.moves[i]
	a.nmoves[a.find(m.a)]--
	a.nmoves[a.find(m.b)]--
	m.state = st
}

// addWorklist moves x to the simplify worklist once it is neither
// move-related nor of significant degree.
func (a *allocator) addWorklist(x int32) {
	if a.state[x] == stFreeze && a.nmoves[x] == 0 && a.degree[x] < a.k[x] {
		a.push(x, stSimplify)
	}
}

func (a *allocator) coalesce(i int32) {
	m := a.moves[i]
	x, y := a.find(m.a), a.find(m.b)
	switch {
	case x == y:
		a.retire(i, mvCoalesced)
		a.addWorklist(x)
	case hasBit(a.row(x), y) || a.mask[x]&a.mask[y] == 0:
		a.retire(i, mvConstrained)
		a.addWorklist(x)
		a.addWorklist(y)
	case a.george(x, y):
		a.retire(i, mvCoalesced)
		a.combine(x, y)
		a.addWorklist(x)
	case a.george(y, x) || a.briggs(x, y):
		a.retire(i, mvCoalesced)
		a.combine(y, x)
		a.addWorklist(y)
	default:
		a.moves[i].state = mvActive
	}
}

// george reports whether v may merge into u by George's test: u's mask
// is the merged mask, and every neighbor of v already interferes with u
// or has insignificant degree.
func (a *allocator) george(u, v int32) bool {
	if a.mask[u]&^a.mask[v] != 0 {
		return false
	}
	ru := a.row(u)
	for j, word := range a.row(v) {
		for word &^= ru[j]; word != 0; word &= word - 1 {
			t := int32(j*64 + bits.TrailingZeros64(word))
			if st := a.state[t]; st != stStack && st != stCoalesced && a.degree[t] >= a.k[t] {
				return false
			}
		}
	}
	return true
}

// briggs reports whether u and v may merge by Briggs's test: the merged
// node has fewer neighbors of significant degree than colors.
func (a *allocator) briggs(u, v int32) bool {
	k := int32(bits.OnesCount32(uint32(a.mask[u] & a.mask[v])))
	ru, rv := a.row(u), a.row(v)
	sig := int32(0)
	for j := range ru {
		both := ru[j] & rv[j]
		for word := ru[j] | rv[j]; word != 0; word &= word - 1 {
			b := word & -word
			t := int32(j*64 + bits.TrailingZeros64(word))
			if st := a.state[t]; st == stStack || st == stCoalesced {
				continue
			}
			d := a.degree[t]
			if both&b != 0 {
				d-- // the merge removes one of t's edges
			}
			if d >= a.k[t] {
				if sig++; sig >= k {
					return false
				}
			}
		}
	}
	return true
}

// combine merges v into u.
func (a *allocator) combine(u, v int32) {
	a.state[v] = stCoalesced
	a.alias[v] = u
	a.next[u], a.next[v] = a.next[v], a.next[u]
	a.nmoves[u] += a.nmoves[v]
	a.mask[u] &= a.mask[v]
	a.k[u] = int32(bits.OnesCount32(uint32(a.mask[u])))
	a.cost[u] += a.cost[v]
	a.flags[u] |= flLong
	a.enableMoves(v)
	// Each neighbor t of v becomes a neighbor of u: a new edge keeps t's
	// degree, an old one lowers it.
	ru := a.row(u)
	for j, word := range a.row(v) {
		for ; word != 0; word &= word - 1 {
			t := int32(j*64 + bits.TrailingZeros64(word))
			if st := a.state[t]; st == stStack || st == stCoalesced {
				continue
			}
			if hasBit(ru, t) {
				a.decrementDegree(t)
				continue
			}
			setBit(ru, t)
			setBit(a.row(t), u)
			a.degree[u]++
		}
	}
	if a.degree[u] >= a.k[u] && a.state[u] == stFreeze {
		a.push(u, stSpill)
	}
}

// freezeMoves gives up coalescing the moves of x.
func (a *allocator) freezeMoves(x int32) {
	for m := x; ; {
		for _, i := range a.moveIdx[a.moveOff[m]:a.moveOff[m+1]] {
			mv := a.moves[i]
			if mv.state != mvWorklist && mv.state != mvActive {
				continue
			}
			y := a.find(mv.a)
			if y == x {
				y = a.find(mv.b)
			}
			a.retire(i, mvFrozen)
			a.addWorklist(y)
		}
		if m = a.next[m]; m == x {
			return
		}
	}
}

// selectSpill picks the high-degree node of least cost per degree to
// remove, hoping it still gets a color. A short range costs infinitely.
func (a *allocator) selectSpill() (int32, bool) {
	best, bp := int32(-1), 0.0
	l := a.spill[:0]
	for _, x := range a.spill {
		if a.state[x] != stSpill {
			continue
		}
		l = append(l, x)
		p := math.Inf(1)
		if !a.short(x) {
			p = float64(a.cost[x]) / float64(a.degree[x])
		}
		if best < 0 || p < bp {
			best, bp = x, p
		}
	}
	a.spill = l
	return best, best >= 0
}

// short reports whether x's only uses directly follow its one definition
// in the same block.
func (a *allocator) short(x int32) bool {
	return a.defs[x] == 1 && a.flags[x]&(flLong|flDefLast) == 0 &&
		(a.useLo[x] < 0 || a.useLo[x] == a.defPos[x]+1)
}

// assignColors colors the removed nodes in reverse order of removal. It
// returns the callee-saved registers used.
func (a *allocator) assignColors() regMask {
	// From here on alias maps every node to its representative.
	for x := range a.alias {
		y := a.find(int32(x))
		a.alias[x] = y
		a.want[y] |= a.want[x]
	}
	var usedCS regMask
	for i := len(a.stack) - 1; i >= 0; i-- {
		x := a.stack[i]
		ok, wanted := a.mask[x], regMask(0)
		for j, word := range a.row(x) {
			for ; word != 0; word &= word - 1 {
				switch y := a.alias[j*64+bits.TrailingZeros64(word)]; a.state[y] {
				case stColored:
					ok &^= 1 << a.color[y]
				case stStack:
					wanted |= a.want[y]
				}
			}
		}
		if ok == 0 {
			a.state[x] = stSpilled
			continue
		}
		c := a.pick(x, ok, wanted, usedCS)
		a.state[x], a.color[x] = stColored, int8(c)
		if a.flags[x]&flFloat == 0 && calleeSavedMask&(1<<c) != 0 {
			usedCS |= 1 << c
		}
	}
	return usedCS
}

// pick chooses x's color from ok: the most preferred one; else one the
// neighbors still to be colored do not prefer, caller-saved first for a
// value not live across a call, and a callee-saved register the function
// already saves for one that is; else the lowest.
func (a *allocator) pick(x int32, ok, wanted, usedCS regMask) int {
	var acc [asm.NumRegs]int64
	var seen regMask // the registers with a weight in acc
	for m := x; ; {
		for _, p := range a.prefs[a.prefOff[m]:a.prefOff[m+1]] {
			acc[p.reg] += p.w
			seen |= 1 << p.reg
		}
		for _, i := range a.moveIdx[a.moveOff[m]:a.moveOff[m+1]] {
			mv := &a.moves[i]
			y := a.alias[mv.a]
			if y == x {
				y = a.alias[mv.b]
			}
			if y != x && a.state[y] == stColored {
				acc[a.color[y]] += mv.w
				seen |= 1 << a.color[y]
			}
		}
		if m = a.next[m]; m == x {
			break
		}
	}
	best := -1
	for c := seen & ok; c != 0; c &= c - 1 {
		if r := bits.TrailingZeros32(uint32(c)); best < 0 || acc[r] > acc[best] {
			best = r
		}
	}
	if best >= 0 {
		return best
	}
	if free := ok &^ wanted; free != 0 {
		ok = free
	}
	if c := ok & callerSavedMask; c != 0 && a.flags[x]&flFloat == 0 {
		ok = c
	} else if c := ok & usedCS; c != 0 && a.flags[x]&flFloat == 0 {
		ok = c
	}
	return bits.TrailingZeros32(uint32(ok))
}

// locations fills res.Locs. The values merged into a spilled node share
// its slot.
func (a *allocator) locations(res *Result) {
	slot := a.defPos // reused: the slot of each spilled representative
	for x := range slot {
		slot[x] = -1
	}
	for x, v := range a.val {
		y := a.alias[x]
		private := a.flags[x]&flPrivate != 0
		float := a.flags[x]&flFloat != 0
		switch {
		case a.state[y] == stColored && float:
			res.Locs[v] = Loc{Kind: LocFReg, FReg: asm.FReg(a.color[y]), Private: private, IsFloat: true}
		case a.state[y] == stColored:
			res.Locs[v] = Loc{Kind: LocReg, Reg: asm.Reg(a.color[y]), Private: private}
		default:
			if slot[y] < 0 {
				if private {
					slot[y] = int32(res.PrivSlots)
					res.PrivSlots++
				} else {
					slot[y] = int32(res.PubSlots)
					res.PubSlots++
				}
			}
			res.Locs[v] = Loc{Kind: LocSlot, Slot: int(slot[y]), Private: private, IsFloat: float}
		}
	}
}
