package codegen

import (
	"math"

	"confllvm/internal/asm"
	"confllvm/internal/ir"
	"confllvm/internal/types"
)

// prepass rewrites a function into the shape the lowering turns straight
// into -O2-style code, before register allocation sees it. The input
// function is not modified: the result shares its unchanged instructions
// and value types, and rewritten instructions are fresh copies.
//
// The rewritten IR uses three codegen-private forms:
//
//   - an integer binary op or icmp with a single argument takes its right
//     operand from Imm (the x64 RI form: add r, imm; cmp r, imm);
//   - an icmp/fcmp with no result only sets the flags, and the condbr
//     right after it has no argument and branches on them (cmp; jcc);
//   - a load with Args [b] or [b, i], or a store with Args [b, v] or
//     [b, v, i], accesses [b + i*Blk + Imm]: Blk is the scale, and Imm
//     is 0 and there is no index unless rewrite 6 made them.
//
// The rewrites, block by block:
//
//  1. Constant operands. A constant defined once, earlier in the same
//     block, folds into the RI form of add/sub/mul/and/or/xor/shl/shr/sar
//     and of icmp (commutative ops and icmp swap their operands, icmp
//     mirroring its predicate). A constant divisor folds into the RI form
//     of div/mod when planDiv has a plan for it, which the lowering
//     expands into multiplies and shifts (see divconst.go); the divisors
//     it has none for (0, -1, INT64_MIN, unsigned 64-bit non-powers of
//     two) stay in a register for idiv/div. A trunc of such a constant
//     becomes the constant it canonicalizes to.
//  2. Copy folding. t = op ...; d = copy t becomes d = op ... when t is
//     defined once, its only use is that copy, and t and d have the same
//     resolved privacy and float-ness (never across a taint mismatch). A
//     no-op integer/pointer bitcast counts as a copy.
//  3. Store folding. t = trunc x; store p, t, with the trunc's only use
//     that store and the store no wider than the trunc, becomes
//     store p, x: a store writes only the low bytes, which the trunc
//     does not change. (The taint of x flows into t, so x is never more
//     private than the memory it is stored to.)
//  4. Dead constants: a constant left without uses is dropped, so it
//     takes no register.
//  5. Compare-and-branch fusion. An icmp whose only use is the condbr
//     right after it sets the flags for that condbr directly. An fcmp
//     fuses only when its true target is not the layout-next block, so
//     that the branch is never inverted (an inverted float predicate is
//     wrong on NaN).
//  6. Address folding. t = add b, x, defined once, whose every use is
//     the address of a load or store later in the same block, folds into
//     those accesses' memory operands as [b + index*scale + disp] and
//     disappears. x may be an immediate (disp), a mul of i by 1, 2, 4 or
//     8 or a shl of i by 0 to 3 whose only use is the add (index i with
//     that scale), i ± c (index i, disp c, also under the mul or shl,
//     which scales c), or a plain register (index x). A sub of an
//     immediate is an add of its negation. Values are mutable vregs, so
//     a fold needs b and i unwritten from where they were read up to the
//     last access. Under MPX (guard), an operand without an index takes
//     only a displacement the guard space covers (see GuardCovers).
//
// Instrumentation is untouched: the pre-pass sees no bound checks, CFI
// sequences, stack switches or chkstk, which the lowering emits exactly as
// before around the rewritten instructions.
func prepass(f *ir.Func, isPrivate, isFloat func(ir.Value) bool, guard bool) *ir.Func {
	n := f.NumValues()
	// defs, uses, constBlk and rewrite 6's three per-value tables share
	// one allocation.
	tables := make([]int32, 6*n)
	defs, uses := tables[:n:n], tables[n:2*n:2*n]
	total := 0
	for _, blk := range f.Blocks {
		total += len(blk.Insts)
		for _, in := range blk.Insts {
			if in.Res != ir.NoValue {
				defs[in.Res]++
			}
			for _, a := range in.Args {
				if a != ir.NoValue {
					uses[a]++
				}
			}
		}
	}
	p := &prepassState{f: f, isPrivate: isPrivate, isFloat: isFloat, guard: guard,
		defs: defs, uses: uses, constVal: make([]int64, n), constBlk: tables[2*n : 3*n : 3*n],
		lastDef: tables[3*n : 4*n : 4*n], defIdx: tables[4*n : 5*n : 5*n], candOf: tables[5*n:]}

	// Rewriting never lengthens a block, so the new blocks and their
	// instruction lists are carved out of two allocations.
	backing := make([]*ir.Inst, total)
	blocks := make([]ir.Block, len(f.Blocks))
	nf := *f
	nf.Blocks = make([]*ir.Block, len(f.Blocks))
	for i, blk := range f.Blocks {
		p.blk = int32(i + 1)
		out := backing[:0:len(blk.Insts)]
		backing = backing[len(blk.Insts):]
		for _, in := range blk.Insts {
			in = p.foldConsts(in)
			if k := len(out); k > 0 {
				if m := p.merge(out[k-1], in); m != nil {
					out = out[:k-1]
					in = m
				}
			}
			out = append(out, in)
			if in.Op == ir.OpConst && defs[in.Res] == 1 {
				p.constVal[in.Res], p.constBlk[in.Res] = in.Imm, p.blk
			}
		}
		out = p.foldAddrs(out)
		blocks[i] = ir.Block{ID: blk.ID, Insts: out}
		nf.Blocks[i] = &blocks[i]
	}
	for _, blk := range nf.Blocks {
		live := blk.Insts[:0]
		for _, in := range blk.Insts {
			if in.Op != ir.OpConst || uses[in.Res] > 0 {
				live = append(live, in)
			}
		}
		blk.Insts = live
	}
	p.fuseBranches(&nf)
	return &nf
}

type prepassState struct {
	f                  *ir.Func
	isPrivate, isFloat func(ir.Value) bool
	// guard limits a folded operand without an index to a displacement
	// GuardCovers accepts (MPX checks only its base register).
	guard      bool
	defs, uses []int32
	// constVal[v] is the value of v when v is a single-definition
	// constant already defined in the current block, which holds when
	// constBlk[v] == blk (the block's index + 1).
	constVal []int64
	constBlk []int32
	blk      int32
	arena    []ir.Inst  // see alloc
	args     []ir.Value // see allocArgs

	// Rewrite 6's state. lastDef[v] is the clock stamp of v's latest def
	// (0 before any); the clock counts instructions across the function,
	// so a stamp after blkStart is a def in the current block, and
	// defIdx[v] is then that def's index in the block. candOf[t] is 1 +
	// t's index in cands while t is a candidate of the current block.
	clock, blkStart int32
	lastDef, defIdx []int32
	candOf          []int32
	cands           []addrCand
}

// alloc returns a heap copy of in for a rewritten instruction. Copies
// are carved out of chunks, so a function's rewrites take few
// allocations.
func (p *prepassState) alloc(in ir.Inst) *ir.Inst {
	if len(p.arena) == cap(p.arena) {
		p.arena = make([]ir.Inst, 0, 32)
	}
	p.arena = append(p.arena, in)
	return &p.arena[len(p.arena)-1]
}

// allocArgs returns an empty argument list with room for n values,
// carved out of chunks like alloc's instructions.
func (p *prepassState) allocArgs(n int) []ir.Value {
	if cap(p.args)-len(p.args) < n {
		p.args = make([]ir.Value, 0, 64)
	}
	a := p.args[len(p.args) : len(p.args) : len(p.args)+n]
	p.args = p.args[:len(p.args)+n]
	return a
}

// constant returns v's value when it is a block-local constant here.
func (p *prepassState) constant(v ir.Value) (int64, bool) {
	return p.constVal[v], p.constBlk[v] == p.blk
}

// foldConsts applies rewrite 1 to in, returning in itself or a copy.
func (p *prepassState) foldConsts(in *ir.Inst) *ir.Inst {
	switch {
	case in.Op == ir.OpTrunc:
		k, ok := p.constant(in.Args[0])
		if !ok {
			return in
		}
		p.uses[in.Args[0]]--
		return p.alloc(ir.Inst{Op: ir.OpConst, Res: in.Res, Imm: truncConst(in.Ty, k), Ty: in.Ty, Pos: in.Pos})
	case (in.Op == ir.OpDiv || in.Op == ir.OpMod) && len(in.Args) == 2:
		k, ok := p.constant(in.Args[1])
		if !ok {
			return in
		}
		if _, ok := planDiv(k, in.Ty.SizeOf(), in.Ty.Signed); !ok {
			return in
		}
		p.uses[in.Args[1]]--
		ni := p.alloc(*in)
		ni.Args = in.Args[:1:1]
		ni.Imm = k
		return ni
	case (intImmOps[in.Op] != asm.OpInvalid || in.Op == ir.OpICmp) && len(in.Args) == 2:
		reg, imm := in.Args[0], in.Args[1]
		pred := in.Pred
		k, ok := p.constant(imm)
		if !ok && (in.Op.Commutative() || in.Op == ir.OpICmp) {
			if k, ok = p.constant(reg); ok {
				reg, imm = imm, reg
				pred = mirrored[pred]
			}
		}
		if !ok {
			return in
		}
		p.uses[imm]--
		ni := p.alloc(*in)
		ni.Args = in.Args[:1:1]
		if reg != in.Args[0] {
			ni.Args = in.Args[1:2:2]
		}
		ni.Imm = k
		if in.Op == ir.OpICmp {
			ni.Pred = pred
		}
		return ni
	}
	return in
}

// truncConst evaluates a trunc of the constant k to t exactly as the
// lowering computes it in a register.
func truncConst(t *types.Type, k int64) int64 {
	s := t.SizeOf()
	if s >= 8 {
		return k
	}
	sh := uint(64 - 8*s)
	if t.Signed {
		return k << sh >> sh
	}
	return int64(uint64(k) << sh >> sh)
}

// mirrored[pr] is the predicate of an icmp pr with its operands swapped.
var mirrored = [...]ir.Pred{
	ir.PredEQ: ir.PredEQ, ir.PredNE: ir.PredNE,
	ir.PredSLT: ir.PredSGT, ir.PredSLE: ir.PredSGE, ir.PredSGT: ir.PredSLT, ir.PredSGE: ir.PredSLE,
	ir.PredULT: ir.PredUGT, ir.PredULE: ir.PredUGE, ir.PredUGT: ir.PredULT, ir.PredUGE: ir.PredULE,
}

// merge applies rewrites 2 and 3 to the adjacent pair prev; in, returning
// the single instruction replacing both, or nil.
func (p *prepassState) merge(prev, in *ir.Inst) *ir.Inst {
	t := prev.Res
	if t == ir.NoValue || p.defs[t] != 1 || p.uses[t] != 1 {
		return nil
	}
	var m *ir.Inst
	switch {
	case in.Op == ir.OpStore && prev.Op == ir.OpTrunc && in.Args[1] == t &&
		in.Ty.SizeOf() <= prev.Ty.SizeOf():
		m = p.alloc(*in)
		m.Args = []ir.Value{in.Args[0], prev.Args[0]}
	case len(in.Args) != 1 || in.Args[0] != t:
		return nil
	case in.Op == ir.OpCopy || (in.Op == ir.OpBitcast && !p.isFloat(t) && in.Ty.Kind != types.Float):
		if p.isPrivate(t) != p.isPrivate(in.Res) || p.isFloat(t) != p.isFloat(in.Res) {
			return nil
		}
		m = p.alloc(*prev)
		m.Res = in.Res
	default:
		return nil
	}
	p.uses[t] = 0
	return m
}

// fuseBranches applies rewrite 5 to every block of nf.
func (p *prepassState) fuseBranches(nf *ir.Func) {
	// rep[i] is the block whose code starts where block i's does: block i
	// itself, or, when block i is a lone branch to its layout successor
	// (which the lowering emits as nothing), rep[i+1].
	maxID := 0
	for _, blk := range nf.Blocks {
		maxID = max(maxID, blk.ID)
	}
	index := make([]int, maxID+1) // block id -> layout position + 1
	for i, blk := range nf.Blocks {
		index[blk.ID] = i + 1
	}
	pos := func(id int) (int, bool) {
		if id < 0 || id > maxID || index[id] == 0 {
			return 0, false
		}
		return index[id] - 1, true
	}
	rep := make([]int, len(nf.Blocks)+1)
	rep[len(nf.Blocks)] = -1
	for i := len(nf.Blocks) - 1; i >= 0; i-- {
		rep[i] = nf.Blocks[i].ID
		if ins := nf.Blocks[i].Insts; len(ins) == 1 && ins[0].Op == ir.OpBr {
			if j, ok := pos(ins[0].Blk); ok && j > i && rep[j] == rep[i+1] {
				rep[i] = rep[i+1]
			}
		}
	}
	for i, blk := range nf.Blocks {
		ins := blk.Insts
		k := len(ins)
		if k < 2 {
			continue
		}
		cmp, br := ins[k-2], ins[k-1]
		if br.Op != ir.OpCondBr || len(br.Args) != 1 || cmp.Res != br.Args[0] ||
			p.defs[cmp.Res] != 1 || p.uses[cmp.Res] != 1 {
			continue
		}
		switch cmp.Op {
		case ir.OpICmp:
		case ir.OpFCmp:
			if j, ok := pos(br.Blk); ok && rep[j] == rep[i+1] {
				continue
			}
		default:
			continue
		}
		nc, nb := p.alloc(*cmp), p.alloc(*br)
		nc.Res = ir.NoValue
		nb.Args = nil
		ins[k-2], ins[k-1] = nc, nb
	}
}

// addrCand is a candidate of rewrite 6: t = add base, ... folded as
// [base + index*scale + disp]. sb and si are lastDef of base and index
// when the fold read them; every access must see the same stamps.
type addrCand struct {
	t, base, index ir.Value // index is NoValue without one
	scale          int64
	disp           int64
	sb, si         int32
	dead           [3]int32 // indexes of the add and the defs it absorbs, or -1
	n              int32    // address uses seen
	ok             bool
}

// foldAddrs applies rewrite 6 to one block's instructions, after
// rewrites 1 to 3. A forward scan opens a candidate at each foldable add
// and closes it at any use that is not a load or store address, or at
// an access that would read a rewritten base or index; a candidate that
// saw all of its value's uses folds.
func (p *prepassState) foldAddrs(insts []*ir.Inst) []*ir.Inst {
	p.blkStart = p.clock
	p.cands = p.cands[:0]
	for k, in := range insts {
		p.clock++
		for ai, a := range in.Args {
			if a == ir.NoValue || p.candOf[a] == 0 {
				continue
			}
			c := &p.cands[p.candOf[a]-1]
			addrUse := ai == 0 && in.Op.Class() == ir.ClassMemory &&
				(in.Op == ir.OpLoad || in.Args[1] != a)
			if !addrUse || p.lastDef[c.base] != c.sb ||
				(c.index != ir.NoValue && p.lastDef[c.index] != c.si) {
				c.ok = false
			}
			c.n++
		}
		if in.Res == ir.NoValue {
			continue
		}
		if c, ok := p.addrCandidate(insts, k, in); ok {
			p.cands = append(p.cands, c)
			p.candOf[in.Res] = int32(len(p.cands))
		}
		p.lastDef[in.Res], p.defIdx[in.Res] = p.clock, int32(k)
	}
	folded := false
	for i := range p.cands {
		c := &p.cands[i]
		p.candOf[c.t] = 0
		if !c.ok || c.n != p.uses[c.t] {
			continue
		}
		folded = true
		p.uses[c.t] = 0
		for _, d := range c.dead {
			if d >= 0 {
				insts[d] = nil
			}
		}
		p.uses[c.base] += c.n - 1
		if c.index != ir.NoValue {
			p.uses[c.index] += c.n - 1
		}
		p.candOf[c.t] = int32(i + 1)
	}
	if !folded {
		return insts
	}
	out := insts[:0]
	for _, in := range insts {
		if in == nil {
			continue
		}
		if in.Op.Class() == ir.ClassMemory && p.candOf[in.Args[0]] != 0 {
			c := &p.cands[p.candOf[in.Args[0]]-1]
			ni := p.alloc(*in)
			ni.Args = append(append(p.allocArgs(len(in.Args)+1), c.base), in.Args[1:]...)
			if c.index != ir.NoValue {
				ni.Args = append(ni.Args, c.index)
				ni.Blk = int(c.scale)
			}
			ni.Imm = c.disp
			in = ni
		}
		out = append(out, in)
	}
	for i := range p.cands {
		p.candOf[p.cands[i].t] = 0
	}
	return out
}

// addrCandidate reports whether in, the k-th instruction of the block,
// opens a rewrite-6 candidate, and returns it.
func (p *prepassState) addrCandidate(insts []*ir.Inst, k int, in *ir.Inst) (addrCand, bool) {
	t := in.Res
	c := addrCand{t: t, index: ir.NoValue, dead: [3]int32{int32(k), -1, -1}, ok: true}
	if p.defs[t] != 1 || p.uses[t] == 0 {
		return c, false
	}
	switch {
	case (in.Op == ir.OpAdd || in.Op == ir.OpSub) && len(in.Args) == 1:
		c.base, c.disp = in.Args[0], in.Imm
		if in.Op == ir.OpSub {
			if in.Imm == math.MinInt64 {
				return c, false
			}
			c.disp = -in.Imm
		}
	case in.Op == ir.OpAdd && len(in.Args) == 2:
		c.base, c.index, c.scale = in.Args[0], in.Args[1], 1
		readAt := int32(k) // where the folded operand reads the index
		x, ok := p.absorbable(insts, c.index)
		if s := foldScale(x); ok && s != 0 {
			c.scale, c.dead[1], readAt = s, p.defIdx[c.index], p.defIdx[c.index]
			c.index = x.Args[0]
			x, ok = p.absorbable(insts, c.index)
		}
		if ok && (x.Op == ir.OpAdd || x.Op == ir.OpSub) && len(x.Args) == 1 &&
			x.Imm >= math.MinInt32 && x.Imm <= math.MaxInt32 {
			c.disp = x.Imm * c.scale
			if x.Op == ir.OpSub {
				c.disp = -c.disp
			}
			c.dead[2], readAt = p.defIdx[c.index], p.defIdx[c.index]
			c.index = x.Args[0]
		}
		// No def of the index between that read and the add.
		if p.lastDef[c.index] > p.blkStart && p.defIdx[c.index] >= readAt {
			return c, false
		}
		c.si = p.lastDef[c.index]
	default:
		return c, false
	}
	if c.disp != int64(int32(c.disp)) || c.base == t || c.index == t ||
		(p.guard && c.index == ir.NoValue && !GuardCovers(c.disp)) {
		return c, false
	}
	for _, d := range c.dead[1:] {
		if d >= 0 && (insts[d].Res == c.base || insts[d].Res == c.index) {
			return c, false
		}
	}
	c.sb = p.lastDef[c.base]
	return c, true
}

// foldScale returns the scale of an index that x, a mul or shl by an
// immediate, multiplies by, or 0 when an operand cannot scale by it.
func foldScale(x *ir.Inst) int64 {
	if x == nil || len(x.Args) != 1 {
		return 0
	}
	switch {
	case x.Op == ir.OpMul && (x.Imm == 1 || x.Imm == 2 || x.Imm == 4 || x.Imm == 8):
		return x.Imm
	case x.Op == ir.OpShl && x.Imm >= 0 && x.Imm <= 3:
		return 1 << x.Imm
	}
	return 0
}

// absorbable returns the instruction defining v when a fold may absorb
// it: v is defined once, earlier in this block, and used only once.
func (p *prepassState) absorbable(insts []*ir.Inst, v ir.Value) (*ir.Inst, bool) {
	if p.defs[v] != 1 || p.uses[v] != 1 || p.lastDef[v] <= p.blkStart {
		return nil, false
	}
	return insts[p.defIdx[v]], true
}
