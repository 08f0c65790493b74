package verify

import (
	"fmt"

	"confllvm/internal/asm"
	"confllvm/internal/codegen"
)

// Register taint state: true = private (H), false = public (L).
type state struct {
	g     [asm.NumRegs]bool
	f     [asm.NumFRegs]bool
	valid bool
}

func (s *state) join(o *state) bool {
	if !o.valid {
		return false
	}
	if !s.valid {
		*s = *o
		return true
	}
	changed := false
	for i := range s.g {
		if o.g[i] && !s.g[i] {
			s.g[i] = true
			changed = true
		}
	}
	for i := range s.f {
		if o.f[i] && !s.f[i] {
			s.f[i] = true
			changed = true
		}
	}
	return changed
}

// block is a basic block of a disassembled procedure.
type block struct {
	start int
	insts []*inst
	succs []int // block start offsets
}

// checkProc runs the structural and dataflow checks on one procedure.
func (v *verifier) checkProc(p *proc) error {
	if err := v.structural(p); err != nil {
		return err
	}
	blocks, err := v.buildBlocks(p)
	if err != nil {
		return err
	}

	// _chkstk presence: a frame-allocating procedure must check rsp. Every
	// bounds scheme carries the discipline, and VerifyStats has already
	// rejected configurations without one.
	hasSub, hasChk := false, false
	for i := range p.insts {
		in := &p.insts[i]
		if in.Op == asm.OpSubRI && in.Dst == asm.RSP {
			hasSub = true
		}
		if in.Op == asm.OpChkSP {
			hasChk = true
		}
		// rsp may only move by push/pop/call/ret-idiom and immediate
		// adjustment; anything else lets U escape its stack.
		switch in.Op {
		case asm.OpSubRI, asm.OpAddRI, asm.OpPush, asm.OpPop, asm.OpChkSP:
		default:
			if in.WrittenGPR() == asm.RSP {
				return &Error{in.off, "arbitrary rsp modification"}
			}
		}
	}
	if hasSub && !hasChk {
		return &Error{p.entryOff, "frame allocation without a chksp stack check"}
	}

	// Entry taint state from the procedure's magic bits: argument
	// registers per the taint bits, other caller-saved conservatively
	// private, callee-saved public (ConfLLVM's convention).
	entry := state{valid: true}
	for _, r := range asm.CallerSaved {
		entry.g[r] = true
	}
	for i := range entry.f {
		entry.f[i] = true
	}
	for i, r := range asm.ArgRegs {
		entry.g[r] = p.bits&(1<<i) != 0
	}
	entry.g[asm.RSP] = false

	in := map[int]*state{}
	for _, b := range blocks {
		in[b.start] = &state{}
	}
	*in[p.entryOff] = entry

	// Fixpoint.
	work := []int{p.entryOff}
	byStart := map[int]*block{}
	for _, b := range blocks {
		byStart[b.start] = b
	}
	for len(work) > 0 {
		start := work[len(work)-1]
		work = work[:len(work)-1]
		b := byStart[start]
		out := *in[start]
		if !out.valid {
			continue
		}
		if err := v.transferBlock(p, b, &out); err != nil {
			return err
		}
		for _, s := range b.succs {
			if in[s].join(&out) {
				work = append(work, s)
			}
		}
	}
	return nil
}

// structural validates the CFI instruction idioms on the linear layout and
// annotates the anchor instructions with their extracted taint bits.
func (v *verifier) structural(p *proc) error {
	adjacent := func(i int) bool { // inst i immediately precedes inst i+1
		a := &p.insts[i]
		return a.off+a.size == p.insts[i+1].off
	}
	isTrap := func(addr uint64) bool {
		t := p.find(int(addr - v.img.Layout.CodeBase))
		return t != nil && t.Op == asm.OpTrap
	}

	for i := range p.insts {
		in := &p.insts[i]
		off := in.off
		switch in.Op {
		case asm.OpICall:
			// [mov r11, imm] [not r11] [cmp [rt], r11] [jne trap]
			// [add rt, 8] [icall rt]
			if i < 5 {
				return &Error{off, "icall without CFI check sequence"}
			}
			i0 := &p.insts[i-5]
			i1 := &p.insts[i-4]
			i2 := &p.insts[i-3]
			i3 := &p.insts[i-2]
			i4 := &p.insts[i-1]
			ok := i0.Op == asm.OpMovRI && i1.Op == asm.OpNot && i1.Dst == i0.Dst &&
				i2.Op == asm.OpCmpMR && i2.Src == i0.Dst && i2.M.Base == in.Src &&
				i3.Op == asm.OpJcc && i3.Cond == asm.CondNE && isTrap(uint64(i3.Imm)) &&
				i4.Op == asm.OpAddRI && i4.Dst == in.Src && i4.Imm == 8
			for k := i - 5; k < i && ok; k++ {
				ok = adjacent(k)
			}
			if !ok {
				return &Error{off, "icall check idiom malformed"}
			}
			word := ^uint64(i0.Imm)
			if word&^31 != v.img.MCallPrefix {
				return &Error{off, "icall checks a non-MCall magic word"}
			}
			in.icallBits = uint8(word & 31)
			in.icallOK = true
		case asm.OpJmpR:
			// Return idiom:
			// [pop r] [mov r11, imm] [not r11] [cmp [r], r11] [jne trap]
			// [add r, 8] [jmp r]
			if i < 6 {
				return &Error{off, "indirect jump without return idiom"}
			}
			i0 := &p.insts[i-6]
			i1 := &p.insts[i-5]
			i2 := &p.insts[i-4]
			i3 := &p.insts[i-3]
			i4 := &p.insts[i-2]
			i5 := &p.insts[i-1]
			r := in.Src
			ok := i0.Op == asm.OpPop && i0.Dst == r &&
				i1.Op == asm.OpMovRI && i2.Op == asm.OpNot && i2.Dst == i1.Dst &&
				i3.Op == asm.OpCmpMR && i3.M.Base == r && i3.Src == i1.Dst &&
				i4.Op == asm.OpJcc && i4.Cond == asm.CondNE && isTrap(uint64(i4.Imm)) &&
				i5.Op == asm.OpAddRI && i5.Dst == r && i5.Imm == 8
			for k := i - 6; k < i && ok; k++ {
				ok = adjacent(k)
			}
			if !ok {
				return &Error{off, "return idiom malformed (stray indirect jump)"}
			}
			word := ^uint64(i1.Imm)
			if word&^31 != v.img.MRetPrefix {
				return &Error{off, "return checks a non-MRet magic word"}
			}
			in.retBit = uint8(word & 1)
			in.retOK = true
		case asm.OpExit:
			return &Error{off, "exit instruction inside a procedure"}
		}
	}
	return nil
}

// buildBlocks splits a procedure into basic blocks with successor edges.
func (v *verifier) buildBlocks(p *proc) ([]*block, error) {
	var blocks []*block
	var cur *block
	for i := range p.insts {
		in := &p.insts[i]
		if in.leader || cur == nil {
			cur = &block{start: in.off}
			blocks = append(blocks, cur)
		}
		cur.insts = append(cur.insts, in)
		var next *inst
		if i+1 < len(p.insts) {
			next = &p.insts[i+1]
		}
		terminated := true
		switch in.Op {
		case asm.OpJmp:
			cur.succs = append(cur.succs, int(uint64(in.Imm)-v.img.Layout.CodeBase))
		case asm.OpJcc:
			cur.succs = append(cur.succs,
				int(uint64(in.Imm)-v.img.Layout.CodeBase), in.off+in.size)
		case asm.OpCall, asm.OpICall:
			cur.succs = append(cur.succs, in.retSite+8)
		case asm.OpJmpR, asm.OpTrap, asm.OpExit:
		default:
			terminated = false
			if next != nil && next.leader {
				if in.off+in.size != next.off {
					return nil, &Error{in.off, "control falls into a gap"}
				}
				cur.succs = append(cur.succs, next.off)
				terminated = true
			}
		}
		if terminated {
			cur = nil
		}
	}
	return blocks, nil
}

// bndKey identifies the checks that can cover a memory operand: those on
// its base, index and scale under one bound register. A register-form
// check on r is keyed like a memory-form check on [r + 0].
type bndKey struct {
	base, index asm.Reg
	scale       uint8
	bnd         asm.Bnd
}

func keyOf(m asm.Mem, bnd asm.Bnd) bndKey {
	if m.Index == asm.NoReg {
		return bndKey{m.Base, asm.NoReg, 0, bnd}
	}
	return bndKey{m.Base, m.Index, m.Scale, bnd}
}

// bndEvidence records the checks seen on one key in the current block:
// bits has bit 0 for a lower and bit 1 for an upper check, made at
// displacements lo and hi.
type bndEvidence struct {
	bits   uint8
	lo, hi int32
}

// covers reports whether e bounds an access at displacement d: both
// checks were made and d is within the guard of each.
func (e bndEvidence) covers(d int32) bool {
	return e.bits == 3 && codegen.GuardCovers(int64(d)-int64(e.lo)) &&
		codegen.GuardCovers(int64(d)-int64(e.hi))
}

// transferBlock applies the taint transfer function and all per-
// instruction checks to one block.
func (v *verifier) transferBlock(p *proc, b *block, s *state) error {
	conf := v.img.Config
	checks := map[bndKey]bndEvidence{}
	flags := false // taint of the flags register

	invalidate := func(r asm.Reg) {
		for k := range checks {
			if k.base == r || k.index == r {
				delete(checks, k)
			}
		}
	}
	check := func(m asm.Mem, bnd asm.Bnd, upper bool) {
		k := keyOf(m, bnd)
		e := checks[k]
		if upper {
			e.bits, e.hi = e.bits|2, m.Disp
		} else {
			e.bits, e.lo = e.bits|1, m.Disp
		}
		checks[k] = e
	}

	// operandLevel determines the region taint of a memory operand and
	// validates its protection evidence.
	operandLevel := func(in *inst) (bool, error) {
		m := in.M
		if conf.Bounds == codegen.BoundsSeg {
			if !m.Use32 {
				return false, &Error{in.off, "segment-scheme operand without 32-bit constraint"}
			}
			switch m.Seg {
			case asm.SegGS:
				return true, nil
			case asm.SegFS:
				return false, nil
			}
			return false, &Error{in.off, "unprefixed memory operand under segmentation scheme"}
		}
		// MPX scheme. The bound registers check raw addresses, so a
		// segment base or a 32-bit truncation would move the access away
		// from what was checked.
		if m.Seg != asm.SegNone || m.Use32 {
			return false, &Error{in.off, "segment addressing under the MPX scheme"}
		}
		if m.Base == asm.RSP {
			// Covered by the _chkstk discipline: rsp stays inside the
			// public stack, whose private mirror is OFFSET above it.
			d := int64(m.Disp)
			switch {
			case m.Index != asm.NoReg:
				return false, &Error{in.off, "indexed stack operand"}
			case d >= 0 && codegen.GuardCovers(d):
				return false, nil
			case d >= conf.StackOffset && codegen.GuardCovers(d-conf.StackOffset):
				return true, nil
			}
			return false, &Error{in.off, "stack operand displacement outside both stack guard zones"}
		}
		e0, e1 := checks[keyOf(m, asm.BND0)], checks[keyOf(m, asm.BND1)]
		lo, hi := e0.covers(m.Disp), e1.covers(m.Disp)
		switch {
		case lo && !hi:
			return false, nil
		case hi && !lo:
			return true, nil
		case lo && hi:
			return false, &Error{in.off, "ambiguous bound checks on operand base"}
		case e0.bits == 3 || e1.bits == 3:
			return false, &Error{in.off, "displacement outside the guard zone of its bound check"}
		case m.Index != asm.NoReg:
			return false, &Error{in.off, "indexed operand without a memory-form bound check"}
		}
		return false, &Error{in.off, "memory operand without MPX bound checks"}
	}

	// addrPrivate reports whether a memory operand's address depends on
	// private data: a load through it reads private data whatever the
	// region, and a store through it may not write the public region
	// (Appendix A's H-dependent address rule).
	addrPrivate := func(m asm.Mem) bool {
		return m.Base != asm.NoReg && s.g[m.Base] || m.Index != asm.NoReg && s.g[m.Index]
	}

	for _, in := range b.insts {
		switch in.Op {
		case asm.OpNop, asm.OpChkSP, asm.OpTrap:
		case asm.OpMovRR:
			s.g[in.Dst] = s.g[in.Src]
		case asm.OpMovRI:
			s.g[in.Dst] = false
		case asm.OpLea:
			lvl := false
			if in.M.Base != asm.NoReg {
				lvl = lvl || s.g[in.M.Base]
			}
			if in.M.Index != asm.NoReg {
				lvl = lvl || s.g[in.M.Index]
			}
			s.g[in.Dst] = lvl
		case asm.OpLoad:
			lvl, err := operandLevel(in)
			if err != nil {
				return err
			}
			s.g[in.Dst] = lvl || addrPrivate(in.M)
		case asm.OpStore:
			lvl, err := operandLevel(in)
			if err != nil {
				return err
			}
			if s.g[in.Src] && !lvl {
				return &Error{in.off, "private register stored to public memory"}
			}
			if addrPrivate(in.M) && !lvl {
				return &Error{in.off, "store to public memory through a private address"}
			}
		case asm.OpFLoad:
			lvl, err := operandLevel(in)
			if err != nil {
				return err
			}
			s.f[in.FDst] = lvl || addrPrivate(in.M)
		case asm.OpFStore:
			lvl, err := operandLevel(in)
			if err != nil {
				return err
			}
			if s.f[in.FSrc] && !lvl {
				return &Error{in.off, "private FP register stored to public memory"}
			}
			if addrPrivate(in.M) && !lvl {
				return &Error{in.off, "store to public memory through a private address"}
			}
		case asm.OpPush:
			if s.g[in.Src] {
				return &Error{in.off, "private register pushed to the public stack"}
			}
		case asm.OpPop:
			s.g[in.Dst] = false
		case asm.OpAddRR, asm.OpSubRR, asm.OpMulRR, asm.OpDivRR, asm.OpModRR,
			asm.OpUDivRR, asm.OpUModRR, asm.OpAndRR, asm.OpOrRR, asm.OpXorRR,
			asm.OpShlRR, asm.OpShrRR, asm.OpSarRR:
			s.g[in.Dst] = s.g[in.Dst] || s.g[in.Src]
		case asm.OpAddRI, asm.OpSubRI, asm.OpMulRI, asm.OpMulHiRI, asm.OpAndRI,
			asm.OpOrRI, asm.OpXorRI, asm.OpShlRI, asm.OpShrRI, asm.OpSarRI,
			asm.OpMovsx, asm.OpNeg, asm.OpNot:
			// dst taint unchanged
		case asm.OpCmpRR, asm.OpTestRR:
			flags = s.g[in.Dst] || s.g[in.Src]
		case asm.OpCmpRI, asm.OpTestRI:
			flags = s.g[in.Dst]
		case asm.OpCmpMR:
			// Only legal inside CFI idioms (structural pass enforced
			// adjacency); it compares code bytes with a public constant.
			flags = s.g[in.Src]
		case asm.OpSetCC:
			s.g[in.Dst] = flags
		case asm.OpJcc:
			if v.opts.Strict && flags {
				return &Error{in.off, "branch on private data (implicit flow)"}
			}
		case asm.OpJmp:
		case asm.OpJmpR:
			if !in.retOK {
				return &Error{in.off, "unvalidated indirect jump"}
			}
			if s.g[asm.RetReg] && in.retBit == 0 {
				return &Error{in.off, "private return value at a public return site"}
			}
		case asm.OpCall:
			entryOff := int(uint64(in.Imm) - v.img.Layout.CodeBase)
			calleeBits := uint8(v.mcallOffs[entryOff-8] & 31)
			if err := v.checkArgBits(in, s, calleeBits); err != nil {
				return err
			}
			v.applyCallEffect(in, s)
			clear(checks)
		case asm.OpICall:
			if !in.icallOK {
				return &Error{in.off, "unchecked indirect call"}
			}
			if err := v.checkArgBits(in, s, in.icallBits); err != nil {
				return err
			}
			v.applyCallEffect(in, s)
			clear(checks)
		case asm.OpBndCLReg, asm.OpBndCUReg:
			check(asm.Mem{Base: in.Src, Index: asm.NoReg}, in.Bnd, in.Op == asm.OpBndCUReg)
		case asm.OpBndCLMem, asm.OpBndCUMem:
			if in.M.Seg != asm.SegNone || in.M.Use32 {
				return &Error{in.off, "segment addressing under the MPX scheme"}
			}
			check(in.M, in.Bnd, in.Op == asm.OpBndCUMem)
		case asm.OpFMovRR:
			s.f[in.FDst] = s.f[in.FSrc]
		case asm.OpFMovI:
			s.f[in.FDst] = false
		case asm.OpFAdd, asm.OpFSub, asm.OpFMul, asm.OpFDiv, asm.OpFMax:
			s.f[in.FDst] = s.f[in.FDst] || s.f[in.FSrc]
		case asm.OpFCmp:
			flags = s.f[in.FDst] || s.f[in.FSrc]
		case asm.OpCvtIF:
			s.f[in.FDst] = s.g[in.Src]
		case asm.OpCvtFI:
			s.g[in.Dst] = s.f[in.FSrc]
		case asm.OpMovQIF:
			s.f[in.FDst] = s.g[in.Src]
		case asm.OpMovQFI:
			s.g[in.Dst] = s.f[in.FSrc]
		default:
			return &Error{in.off, "instruction not allowed in untrusted code: " + in.Op.String()}
		}
		if r := in.WrittenGPR(); r != asm.NoReg {
			invalidate(r)
		}
	}
	return nil
}

// checkArgBits enforces that argument-register taints flow into the
// callee's declared taints (ℓ ⊑ M_call, Appendix A's call rule).
func (v *verifier) checkArgBits(in *inst, s *state, bits uint8) error {
	for i, r := range asm.ArgRegs {
		if s.g[r] && bits&(1<<i) == 0 {
			return &Error{in.off,
				fmt.Sprintf("private argument register %s at a public-argument call site", r)}
		}
	}
	return nil
}

// applyCallEffect models a call's register effect: caller-saved registers
// become (conservatively) private, callee-saved stay public, and the
// return register's taint comes from the return-site magic word.
func (v *verifier) applyCallEffect(in *inst, s *state) {
	for _, r := range asm.CallerSaved {
		s.g[r] = true
	}
	for _, r := range asm.CalleeSaved {
		s.g[r] = false
	}
	for i := range s.f {
		s.f[i] = true
	}
	retWord := v.mretOffs[in.retSite]
	s.g[asm.RetReg] = retWord&1 != 0
}
