// Package opt implements the IR optimization pipeline, and every variant
// runs the same one, O2. The paper's prototype disables the LLVM passes
// that drop its taint metadata (§5.1: "We disable the remaining
// optimizations in our prototype"). Here no pass has metadata to drop:
// taint inference runs after opt, on the optimized IR, so a rewritten
// instruction is one more flow edge for inference to check, and local CSE
// merges a constant only with one of the same qualified type, so it never
// unifies a private 0 or NULL with a public one. None (-O0) remains for
// the NoOpt build.
package opt

import (
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
}

// O2 is the full pipeline, run by every variant.
func O2() Passes {
	return Passes{constFold: true, copyProp: true, localCSE: true, dce: true, simplifyCFG: true}
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
			changed := false
			if p.simplifyCFG {
				changed = s.simplifyCFG(f) || changed
			}
			if p.constFold {
				changed = s.constFold(f) || changed
			}
			if p.copyProp {
				changed = s.copyProp(f) || changed
			}
			if p.localCSE {
				changed = s.localCSE(f) || changed
			}
			if p.dce {
				changed = s.dce(f) || changed
			}
			if !changed {
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
	avail   []cseSlot // open-addressing table; the length is a power of two
	used    []bool
	blocks  []*ir.Block // by block id
	reached []bool      // by block id
	work    []int
}

// fit grows the per-value tables to f. Entries left by earlier functions
// need no reset: their stamps are older than any block of f.
func (s *scratch) fit(f *ir.Func) {
	if n := f.NumValues(); len(s.stamp) < n {
		s.stamp = append(s.stamp, make([]uint32, n-len(s.stamp))...)
		s.consts = append(s.consts, make([]constFact, n-len(s.consts))...)
		s.aliases = append(s.aliases, make([]alias, n-len(s.aliases))...)
		s.used = append(s.used, make([]bool, n-len(s.used))...)
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
			switch in.Op {
			case ir.OpConst:
				s.consts[in.Res] = constFact{imm: in.Imm, ver: ver}
			case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpMod,
				ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr, ir.OpSar:
				a, okA := s.constOf(in.Args[0], start)
				b, okB := s.constOf(in.Args[1], start)
				if !okA || !okB {
					continue
				}
				v, ok := foldBin(in.Op, a, b)
				if !ok {
					continue
				}
				ty := f.ValueType(in.Res)
				*in = ir.Inst{Op: ir.OpConst, Res: in.Res, Imm: v, Ty: ty, Pos: in.Pos}
				s.consts[in.Res] = constFact{imm: v, ver: ver}
				changed = true
			case ir.OpICmp:
				a, okA := s.constOf(in.Args[0], start)
				b, okB := s.constOf(in.Args[1], start)
				if !okA || !okB {
					continue
				}
				v := foldICmp(in.Pred, a, b)
				ty := f.ValueType(in.Res)
				*in = ir.Inst{Op: ir.OpConst, Res: in.Res, Imm: v, Ty: ty, Pos: in.Pos}
				s.consts[in.Res] = constFact{imm: v, ver: ver}
				changed = true
			case ir.OpCondBr:
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

func foldBin(op ir.Op, a, b int64) (int64, bool) {
	switch op {
	case ir.OpAdd:
		return a + b, true
	case ir.OpSub:
		return a - b, true
	case ir.OpMul:
		return a * b, true
	case ir.OpDiv:
		if b == 0 {
			return 0, false
		}
		return a / b, true
	case ir.OpMod:
		if b == 0 {
			return 0, false
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
			switch in.Op {
			case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor,
				ir.OpShl, ir.OpShr, ir.OpSar:
				a, b := in.Args[0], in.Args[1]
				key = cseKey{op: in.Op, a: a, av: s.stampOf(a), b: b, bv: s.stampOf(b)}
			case ir.OpICmp:
				a, b := in.Args[0], in.Args[1]
				key = cseKey{op: in.Op, pred: in.Pred, a: a, av: s.stampOf(a), b: b, bv: s.stampOf(b)}
			case ir.OpConst:
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

func hasSideEffects(in *ir.Inst) bool {
	switch in.Op {
	case ir.OpStore, ir.OpCall, ir.OpICall, ir.OpRet, ir.OpBr, ir.OpCondBr:
		return true
	case ir.OpDiv, ir.OpMod: // may fault
		return true
	}
	return false
}

// dce removes pure instructions whose results are never used anywhere and
// Copy instructions to dead vregs.
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

// simplifyCFG removes blocks unreachable from the entry.
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
		return false
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
