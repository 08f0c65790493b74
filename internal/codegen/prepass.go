package codegen

import (
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
//   - an sext/zext with a nonzero Imm extends the low Imm bytes of its
//     (wider) argument: a trunc folded into the extension.
//
// The rewrites, block by block:
//
//  1. Constant operands. A constant defined once, earlier in the same
//     block, folds into the RI form of add/sub/mul/and/or/xor/shl/shr/sar
//     and of icmp (commutative ops and icmp swap their operands, icmp
//     mirroring its predicate). div/mod have no RI form. A trunc, zext or
//     sext of such a constant becomes a constant.
//  2. Copy folding. t = op ...; d = copy t becomes d = op ... when t is
//     defined once, its only use is that copy, and t and d have the same
//     resolved privacy and float-ness (never across a taint mismatch). A
//     no-op integer/pointer bitcast counts as a copy.
//  3. trunc + extension. t = trunc x; y = ext t from t's width, with the
//     trunc's only use that extension, becomes y = ext x without the
//     trunc's mask.
//  4. Dead constants: a constant left without uses is dropped, so it
//     takes no register.
//  5. Compare-and-branch fusion. An icmp whose only use is the condbr
//     right after it sets the flags for that condbr directly. An fcmp
//     fuses only when its true target is not the layout-next block, so
//     that the branch is never inverted (an inverted float predicate is
//     wrong on NaN).
//
// Instrumentation is untouched: the pre-pass sees no bound checks, CFI
// sequences, stack switches or chkstk, which the lowering emits exactly as
// before around the rewritten instructions.
func prepass(f *ir.Func, isPrivate, isFloat func(ir.Value) bool) *ir.Func {
	n := f.NumValues()
	defs := make([]int32, n)
	uses := make([]int32, n)
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
	p := &prepassState{f: f, isPrivate: isPrivate, isFloat: isFloat,
		defs: defs, uses: uses, constVal: make([]int64, n), constBlk: make([]int32, n)}

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
	defs, uses         []int32
	// constVal[v] is the value of v when v is a single-definition
	// constant already defined in the current block, which holds when
	// constBlk[v] == blk (the block's index + 1).
	constVal []int64
	constBlk []int32
	blk      int32
	arena    []ir.Inst // see alloc
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

// constant returns v's value when it is a block-local constant here.
func (p *prepassState) constant(v ir.Value) (int64, bool) {
	return p.constVal[v], p.constBlk[v] == p.blk
}

// foldConsts applies rewrite 1 to in, returning in itself or a copy.
func (p *prepassState) foldConsts(in *ir.Inst) *ir.Inst {
	switch {
	case in.Op == ir.OpTrunc || in.Op == ir.OpZExt || in.Op == ir.OpSExt:
		k, ok := p.constant(in.Args[0])
		if !ok {
			return in
		}
		p.uses[in.Args[0]]--
		return p.alloc(ir.Inst{Op: ir.OpConst, Res: in.Res, Imm: p.castConst(in, k), Ty: in.Ty, Pos: in.Pos})
	case (intImmOps[in.Op] != asm.OpInvalid || in.Op == ir.OpICmp) && len(in.Args) == 2:
		reg, imm := in.Args[0], in.Args[1]
		pred := in.Pred
		k, ok := p.constant(imm)
		if !ok && (commutative(in.Op) || in.Op == ir.OpICmp) {
			if k, ok = p.constant(reg); ok {
				reg, imm = imm, reg
				pred = mirror(pred)
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

// castConst evaluates a trunc/zext/sext of the constant k exactly as the
// lowering computes it in a register.
func (p *prepassState) castConst(in *ir.Inst, k int64) int64 {
	s := in.Ty.SizeOf()
	if in.Op != ir.OpTrunc {
		s = p.f.ValueType(in.Args[0]).SizeOf()
	}
	if s >= 8 {
		return k
	}
	sh := uint(64 - 8*s)
	if in.Op == ir.OpSExt {
		return k << sh >> sh
	}
	return int64(uint64(k) << sh >> sh)
}

// mirror returns the predicate of an icmp with its operands swapped.
func mirror(pr ir.Pred) ir.Pred {
	switch pr {
	case ir.PredSLT:
		return ir.PredSGT
	case ir.PredSLE:
		return ir.PredSGE
	case ir.PredSGT:
		return ir.PredSLT
	case ir.PredSGE:
		return ir.PredSLE
	case ir.PredULT:
		return ir.PredUGT
	case ir.PredULE:
		return ir.PredUGE
	case ir.PredUGT:
		return ir.PredULT
	case ir.PredUGE:
		return ir.PredULE
	}
	return pr // eq, ne
}

// merge applies rewrites 2 and 3 to the adjacent pair prev; in, returning
// the single instruction replacing both, or nil.
func (p *prepassState) merge(prev, in *ir.Inst) *ir.Inst {
	t := prev.Res
	if t == ir.NoValue || len(in.Args) != 1 || in.Args[0] != t ||
		p.defs[t] != 1 || p.uses[t] != 1 {
		return nil
	}
	switch {
	case in.Op == ir.OpCopy || (in.Op == ir.OpBitcast && !p.isFloat(t) && in.Ty.Kind != types.Float):
		if p.isPrivate(t) != p.isPrivate(in.Res) || p.isFloat(t) != p.isFloat(in.Res) {
			return nil
		}
		m := p.alloc(*prev)
		m.Res = in.Res
		p.uses[t] = 0
		return m
	case (in.Op == ir.OpSExt || in.Op == ir.OpZExt) && in.Imm == 0 && prev.Op == ir.OpTrunc:
		w := prev.Ty.SizeOf()
		if w >= 8 || p.f.ValueType(t).SizeOf() != w {
			return nil
		}
		m := p.alloc(*in)
		m.Args = prev.Args[:1:1]
		m.Imm = int64(w)
		p.uses[t] = 0
		return m
	}
	return nil
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
