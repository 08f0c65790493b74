package codegen

import (
	"fmt"
	"math"
	"math/bits"

	"confllvm/internal/asm"
	"confllvm/internal/ir"
	"confllvm/internal/regalloc"
	"confllvm/internal/types"
)

// readGPR materializes v into a general-purpose register, using scratch
// when v lives in memory or an FP register.
func (c *ctx) readGPR(v ir.Value, scratch asm.Reg) asm.Reg {
	loc := c.ra.Locs[v]
	switch loc.Kind {
	case regalloc.LocReg:
		return loc.Reg
	case regalloc.LocFReg:
		c.emit(asm.Inst{Op: asm.OpMovQFI, Dst: scratch, FSrc: loc.FReg})
	case regalloc.LocSlot:
		c.emit(asm.Inst{Op: asm.OpLoad, Dst: scratch, M: c.spillOperand(loc)})
	default:
		// Unallocated (dead) value: zero the scratch.
		c.emit(asm.Inst{Op: asm.OpMovRI, Dst: scratch, Imm: 0})
	}
	// The scratch now holds a different value than when any coalesced MPX
	// check was emitted against it; a stale entry here would let a
	// reloaded pointer ride on another pointer's bound check (the
	// verifier rejects exactly this).
	c.invalidateChecks(scratch)
	return scratch
}

// readFPR materializes v into a floating-point register.
func (c *ctx) readFPR(v ir.Value, scratch asm.FReg) asm.FReg {
	loc := c.ra.Locs[v]
	switch loc.Kind {
	case regalloc.LocFReg:
		return loc.FReg
	case regalloc.LocReg:
		c.emit(asm.Inst{Op: asm.OpMovQIF, FDst: scratch, Src: loc.Reg})
		return scratch
	case regalloc.LocSlot:
		c.emit(asm.Inst{Op: asm.OpFLoad, FDst: scratch, M: c.spillOperand(loc)})
		return scratch
	}
	c.emit(asm.Inst{Op: asm.OpFMovI, FDst: scratch, Imm: 0})
	return scratch
}

// destGPR returns the register to compute v's result in; flushGPR stores
// it back if v lives in memory or an FP register.
func (c *ctx) destGPR(v ir.Value) asm.Reg {
	loc := c.ra.Locs[v]
	if loc.Kind == regalloc.LocReg {
		return loc.Reg
	}
	return regalloc.ScratchA
}

func (c *ctx) flushGPR(v ir.Value, r asm.Reg) {
	loc := c.ra.Locs[v]
	switch loc.Kind {
	case regalloc.LocReg:
		// computed in place
	case regalloc.LocFReg:
		c.emit(asm.Inst{Op: asm.OpMovQIF, FDst: loc.FReg, Src: r})
	case regalloc.LocSlot:
		c.emit(asm.Inst{Op: asm.OpStore, M: c.spillOperand(loc), Src: r})
	}
	c.invalidateChecks(r)
}

func (c *ctx) destFPR(v ir.Value) asm.FReg {
	loc := c.ra.Locs[v]
	if loc.Kind == regalloc.LocFReg {
		return loc.FReg
	}
	return regalloc.ScratchFA
}

func (c *ctx) flushFPR(v ir.Value, r asm.FReg) {
	loc := c.ra.Locs[v]
	switch loc.Kind {
	case regalloc.LocFReg:
	case regalloc.LocReg:
		c.emit(asm.Inst{Op: asm.OpMovQFI, Dst: loc.Reg, FSrc: r})
	case regalloc.LocSlot:
		c.emit(asm.Inst{Op: asm.OpFStore, M: c.spillOperand(loc), FSrc: r})
	}
}

// invalidateChecks drops coalesced MPX checks that read a clobbered
// register.
func (c *ctx) invalidateChecks(r asm.Reg) {
	for k := range c.checked {
		if k.base == r || k.index == r {
			delete(c.checked, k)
		}
	}
}

// address is the memory operand of a load or store before the scheme's
// instrumentation: [base + index*scale + disp], index NoReg when the
// prepass folded none.
type address struct {
	base, index asm.Reg
	scale       uint8
	disp        int32
}

// readAddress materializes the address operands of a load or store (see
// prepass rewrite 6): the base in ScratchB and the index in ScratchA
// when they are not in registers. A store whose value also needs
// ScratchA (valueA) puts a spilled index in ScratchB if the base leaves
// it free; when both are spilled, it computes the whole address into
// ScratchB with a lea and accesses [ScratchB].
func (c *ctx) readAddress(in *ir.Inst, valueA bool) address {
	a := address{base: c.readGPR(in.Args[0], regalloc.ScratchB), index: asm.NoReg, disp: int32(in.Imm)}
	iv := ir.NoValue
	if n := len(in.Args); in.Op == ir.OpLoad && n == 2 || in.Op == ir.OpStore && n == 3 {
		iv = in.Args[n-1]
	}
	if iv == ir.NoValue {
		return a
	}
	a.scale = uint8(in.Blk)
	if !valueA || c.ra.Locs[iv].Kind == regalloc.LocReg {
		a.index = c.readGPR(iv, regalloc.ScratchA)
		return a
	}
	if a.base != regalloc.ScratchB {
		a.index = c.readGPR(iv, regalloc.ScratchB)
		return a
	}
	a.index = c.readGPR(iv, regalloc.ScratchA)
	return c.leaAddress(a)
}

// leaAddress computes an indexed address into ScratchB with one lea.
func (c *ctx) leaAddress(a address) address {
	c.emit(asm.Inst{Op: asm.OpLea, Dst: regalloc.ScratchB, M: asm.Mem{Base: a.base, Index: a.index,
		Scale: a.scale, Disp: a.disp, Size: 8}})
	c.invalidateChecks(regalloc.ScratchB)
	return address{base: regalloc.ScratchB, index: asm.NoReg}
}

// memOperand builds the operand for an access of size bytes at address a
// under the active scheme, emitting MPX checks as needed. private
// selects the region (gs/bnd1 vs fs/bnd0).
func (c *ctx) memOperand(a address, size uint8, signed, private bool) asm.Mem {
	if c.conf.Bounds == BoundsSeg && a.index != asm.NoReg {
		// The segment scheme truncates base and index to 32 bits
		// separately, so a negative index would leave the segment: the
		// full address is computed in a register instead.
		a = c.leaAddress(a)
	}
	m := asm.Mem{Base: a.base, Index: a.index, Scale: a.scale, Disp: a.disp, Size: size, Signed: signed}
	switch c.conf.Bounds {
	case BoundsSeg:
		if private {
			m.Seg = asm.SegGS
		} else {
			m.Seg = asm.SegFS
		}
		m.Use32 = true
	case BoundsMPX:
		bnd := asm.BND0
		if private {
			bnd = asm.BND1
		}
		if c.conf.NoMPXOpt {
			// The ablation baseline: the exact address of every access
			// is checked.
			c.emitMemChecks(m, bnd)
			break
		}
		// rsp-relative accesses are covered by the _chkstk discipline,
		// which every bounds scheme carries.
		if a.base == asm.RSP && a.index == asm.NoReg {
			break
		}
		// Block-local coalescing: skip a check already emitted for the
		// same registers and bound, with no intervening clobber or call,
		// whose displacement is within the guard of this one.
		key := checkKey{a.base, a.index, a.scale, bnd}
		if d0, ok := c.checked[key]; ok && GuardCovers(int64(a.disp)-int64(d0)) {
			break
		}
		if a.index == asm.NoReg {
			// Register-operand preference with guard-displacement
			// elision: the prepass folds only displacements the guard
			// covers, so checking the base covers [base + disp].
			c.emit(asm.Inst{Op: asm.OpBndCLReg, Src: a.base, Bnd: bnd})
			c.emit(asm.Inst{Op: asm.OpBndCUReg, Src: a.base, Bnd: bnd})
			c.checked[key] = 0
			break
		}
		c.emitMemChecks(m, bnd)
		c.checked[key] = a.disp
	}
	return m
}

// emitMemChecks emits the memory-form check pair on m's effective address.
func (c *ctx) emitMemChecks(m asm.Mem, bnd asm.Bnd) {
	m.Signed = false
	c.emit(asm.Inst{Op: asm.OpBndCLMem, M: m, Bnd: bnd})
	c.emit(asm.Inst{Op: asm.OpBndCUMem, M: m, Bnd: bnd})
}

// lower translates one IR instruction.
func (c *ctx) lower(in *ir.Inst) error {
	switch in.Op.Class() {
	case ir.ClassIntBin:
		c.lowerIntBin(in)
		return nil
	case ir.ClassFloatBin:
		c.lowerFloatBin(in)
		return nil
	case ir.ClassCall:
		return c.lowerCall(in)
	}
	switch in.Op {
	case ir.OpConst:
		d := c.destGPR(in.Res)
		c.emit(asm.Inst{Op: asm.OpMovRI, Dst: d, Imm: in.Imm})
		c.flushGPR(in.Res, d)
	case ir.OpFConst:
		d := c.destFPR(in.Res)
		c.emit(asm.Inst{Op: asm.OpFMovI, FDst: d, Imm: int64(math.Float64bits(in.FImm))})
		c.flushFPR(in.Res, d)

	case ir.OpICmp:
		a := c.readGPR(in.Args[0], regalloc.ScratchA)
		if len(in.Args) == 1 {
			c.emit(asm.Inst{Op: asm.OpCmpRI, Dst: a, Imm: in.Imm})
		} else {
			b := c.readGPR(in.Args[1], regalloc.ScratchB)
			c.emit(asm.Inst{Op: asm.OpCmpRR, Dst: a, Src: b})
		}
		c.setFlags(in.Res, icmpConds[in.Pred], false)
	case ir.OpFCmp:
		a := c.readFPR(in.Args[0], regalloc.ScratchFA)
		b := c.readFPR(in.Args[1], regalloc.ScratchFB)
		c.emit(asm.Inst{Op: asm.OpFCmp, FDst: a, FSrc: b})
		c.setFlags(in.Res, fcmpConds[in.Pred], true)

	case ir.OpLoad:
		a := c.readAddress(in, false)
		private := c.v.private(in.Ty.Qual)
		if in.Ty.Kind == types.Float {
			m := c.memOperand(a, 8, false, private)
			d := c.destFPR(in.Res)
			c.emit(asm.Inst{Op: asm.OpFLoad, FDst: d, M: m})
			c.flushFPR(in.Res, d)
			break
		}
		size := uint8(in.Ty.SizeOf())
		if size == 0 || size > 8 {
			size = 8
		}
		m := c.memOperand(a, size, in.Ty.Signed, private)
		d := c.destGPR(in.Res)
		c.emit(asm.Inst{Op: asm.OpLoad, Dst: d, M: m})
		c.flushGPR(in.Res, d)
	case ir.OpStore:
		private := c.v.private(in.Ty.Qual)
		if in.Ty.Kind == types.Float {
			a := c.readAddress(in, false)
			v := c.readFPR(in.Args[1], regalloc.ScratchFA)
			m := c.memOperand(a, 8, false, private)
			c.emit(asm.Inst{Op: asm.OpFStore, M: m, FSrc: v})
			break
		}
		a := c.readAddress(in, c.ra.Locs[in.Args[1]].Kind != regalloc.LocReg)
		v := c.readGPR(in.Args[1], regalloc.ScratchA)
		size := uint8(in.Ty.SizeOf())
		if size == 0 || size > 8 {
			size = 8
		}
		m := c.memOperand(a, size, in.Ty.Signed, private)
		c.emit(asm.Inst{Op: asm.OpStore, M: m, Src: v})

	case ir.OpCopy:
		if c.ra.Locs[in.Res] == c.ra.Locs[in.Args[0]] {
			break // coalesced: the value is already in place
		}
		src := c.f.ValueType(in.Args[0])
		if src != nil && src.Kind == types.Float {
			v := c.readFPR(in.Args[0], regalloc.ScratchFA)
			c.flushFPR(in.Res, v)
			if c.ra.Locs[in.Res].Kind == regalloc.LocFReg && c.ra.Locs[in.Res].FReg != v {
				c.emit(asm.Inst{Op: asm.OpFMovRR, FDst: c.ra.Locs[in.Res].FReg, FSrc: v})
			}
			break
		}
		v := c.readGPR(in.Args[0], regalloc.ScratchA)
		loc := c.ra.Locs[in.Res]
		if loc.Kind == regalloc.LocReg {
			if loc.Reg != v {
				c.emit(asm.Inst{Op: asm.OpMovRR, Dst: loc.Reg, Src: v})
				c.invalidateChecks(loc.Reg)
			}
		} else {
			c.flushGPR(in.Res, v)
		}

	case ir.OpAddrOf:
		c.lowerAddrOf(in)

	case ir.OpGlobalAddr:
		d := c.destGPR(in.Res)
		c.emitRel(asm.Inst{Op: asm.OpMovRI, Dst: d}, RelGlobal, in.Global, 0)
		c.flushGPR(in.Res, d)
	case ir.OpFuncAddr:
		d := c.destGPR(in.Res)
		c.emitRel(asm.Inst{Op: asm.OpMovRI, Dst: d}, RelFuncPtr, in.Global, 0)
		c.flushGPR(in.Res, d)

	case ir.OpTrunc:
		// Canonicalize to Ty (see ir.OpTrunc) with one instruction: a
		// movsx from Ty's width when it is signed, an and mask when it is
		// not. opt has already turned every trunc whose high bits nothing
		// reads into a copy.
		v := c.readGPR(in.Args[0], regalloc.ScratchA)
		d := c.destGPR(in.Res)
		if d != v {
			c.emit(asm.Inst{Op: asm.OpMovRR, Dst: d, Src: v})
		}
		if s := in.Ty.SizeOf(); s < 8 && in.Ty.Signed {
			c.emit(asm.Inst{Op: asm.OpMovsx, Dst: d, Imm: int64(s)})
		} else if s < 8 {
			c.emit(asm.Inst{Op: asm.OpAndRI, Dst: d, Imm: int64(1)<<(8*uint(s)) - 1})
		}
		c.flushGPR(in.Res, d)
	case ir.OpBitcast:
		src := c.f.ValueType(in.Args[0])
		if src != nil && src.Kind == types.Float && in.Ty.Kind != types.Float {
			v := c.readFPR(in.Args[0], regalloc.ScratchFA)
			d := c.destGPR(in.Res)
			c.emit(asm.Inst{Op: asm.OpMovQFI, Dst: d, FSrc: v})
			c.flushGPR(in.Res, d)
			break
		}
		v := c.readGPR(in.Args[0], regalloc.ScratchA)
		if in.Ty.Kind == types.Float {
			d := c.destFPR(in.Res)
			c.emit(asm.Inst{Op: asm.OpMovQIF, FDst: d, Src: v})
			c.flushFPR(in.Res, d)
			break
		}
		d := c.destGPR(in.Res)
		if d != v {
			c.emit(asm.Inst{Op: asm.OpMovRR, Dst: d, Src: v})
		}
		c.flushGPR(in.Res, d)
	case ir.OpIntToFP:
		if in.Ty.IsInteger() && !in.Ty.Signed && in.Ty.SizeOf() == 8 {
			c.lowerUnsignedToFP(in)
			break
		}
		v := c.readGPR(in.Args[0], regalloc.ScratchA)
		d := c.destFPR(in.Res)
		c.emit(asm.Inst{Op: asm.OpCvtIF, FDst: d, Src: v})
		c.flushFPR(in.Res, d)
	case ir.OpFPToInt:
		v := c.readFPR(in.Args[0], regalloc.ScratchFA)
		d := c.destGPR(in.Res)
		c.emit(asm.Inst{Op: asm.OpCvtFI, Dst: d, FSrc: v})
		c.flushGPR(in.Res, d)

	case ir.OpVaStart:
		d := c.destGPR(in.Res)
		disp := c.incomingArgDisp(len(c.f.Sig.Params))
		c.emit(asm.Inst{Op: asm.OpLea, Dst: d,
			M: asm.Mem{Base: asm.RSP, Index: asm.NoReg, Disp: int32(disp), Size: 8}})
		c.flushGPR(in.Res, d)

	case ir.OpRet:
		if len(in.Args) > 0 && in.Args[0] != ir.NoValue {
			rt := c.f.ValueType(in.Args[0])
			if rt != nil && rt.Kind == types.Float {
				v := c.readFPR(in.Args[0], regalloc.ScratchFA)
				c.emit(asm.Inst{Op: asm.OpMovQFI, Dst: asm.RetReg, FSrc: v})
			} else {
				v := c.readGPR(in.Args[0], regalloc.ScratchA)
				if v != asm.RetReg {
					c.emit(asm.Inst{Op: asm.OpMovRR, Dst: asm.RetReg, Src: v})
				}
			}
		} else if rt := c.f.Sig.Ret; rt != nil && rt.Kind != types.Void {
			// A bare return from a non-void function: the caller still
			// reads rax, so return a public zero rather than whatever the
			// body left there (ConfVerify rejects a possibly-private rax at
			// a public return site).
			c.emit(asm.Inst{Op: asm.OpMovRI, Dst: asm.RetReg, Imm: 0})
		}
		c.epilogue()
	case ir.OpBr:
		c.term.br = in // the jump, if any, is chosen by layoutBlocks
	case ir.OpCondBr:
		c.term.br = in
		if len(in.Args) == 0 {
			// Fused with the compare right before it (see prepass).
			c.term.cond, c.term.invertible = c.flags, !c.flagsFloat
			break
		}
		v := c.readGPR(in.Args[0], regalloc.ScratchA)
		c.emit(asm.Inst{Op: asm.OpTestRR, Dst: v, Src: v})
		c.term.cond, c.term.invertible = asm.CondNE, true
	default:
		return fmt.Errorf("unsupported IR op %s", in.Op)
	}
	return nil
}

// intBinOps are the register-register forms of the integer binops but
// div and mod (see divOp).
var intBinOps = map[ir.Op]asm.Op{
	ir.OpAdd: asm.OpAddRR, ir.OpSub: asm.OpSubRR, ir.OpMul: asm.OpMulRR,
	ir.OpAnd: asm.OpAndRR, ir.OpOr: asm.OpOrRR, ir.OpXor: asm.OpXorRR,
	ir.OpShl: asm.OpShlRR, ir.OpShr: asm.OpShrRR, ir.OpSar: asm.OpSarRR,
}

// intImmOps are the register-immediate forms of the ops in intBinOps.
var intImmOps = map[ir.Op]asm.Op{
	ir.OpAdd: asm.OpAddRI, ir.OpSub: asm.OpSubRI, ir.OpMul: asm.OpMulRI,
	ir.OpAnd: asm.OpAndRI, ir.OpOr: asm.OpOrRI, ir.OpXor: asm.OpXorRI,
	ir.OpShl: asm.OpShlRI, ir.OpShr: asm.OpShrRI, ir.OpSar: asm.OpSarRI,
}

// setFlags finishes a compare whose flags are set: a compare with a
// result materializes it with setcc; one without (fused by the prepass)
// leaves the condition for the condbr that follows.
func (c *ctx) setFlags(res ir.Value, cond asm.Cond, float bool) {
	if res == ir.NoValue {
		c.flags, c.flagsFloat = cond, float
		return
	}
	d := c.destGPR(res)
	c.emit(asm.Inst{Op: asm.OpSetCC, Cond: cond, Dst: d})
	c.flushGPR(res, d)
}

func (c *ctx) lowerIntBin(in *ir.Inst) {
	a := c.readGPR(in.Args[0], regalloc.ScratchA)
	if in.Op == ir.OpDiv || in.Op == ir.OpMod {
		c.lowerDiv(in, a)
		return
	}
	if len(in.Args) == 1 {
		// Register-immediate form (see prepass). A multiply by 2^k is a
		// shift by k: the same bits mod 2^64, in a third of the cycles.
		op, imm := intImmOps[in.Op], in.Imm
		if in.Op == ir.OpMul && imm > 1 && imm&(imm-1) == 0 {
			op, imm = asm.OpShlRI, int64(bits.TrailingZeros64(uint64(imm)))
		}
		d := c.destGPR(in.Res)
		if d != a {
			// Three-address add/sub: lea d, [a + disp] replaces
			// mov d, a; op d, imm. No jcc reads flags from the add: every
			// branch follows its own cmp or test.
			disp := in.Imm
			if in.Op == ir.OpSub {
				disp = -disp
			}
			if (in.Op == ir.OpAdd || in.Op == ir.OpSub) && disp == int64(int32(disp)) {
				c.emit(asm.Inst{Op: asm.OpLea, Dst: d,
					M: asm.Mem{Base: a, Index: asm.NoReg, Disp: int32(disp), Size: 8}})
				c.flushGPR(in.Res, d)
				return
			}
			c.emit(asm.Inst{Op: asm.OpMovRR, Dst: d, Src: a})
		}
		c.emit(asm.Inst{Op: op, Dst: d, Imm: imm})
		c.flushGPR(in.Res, d)
		return
	}
	b := c.readGPR(in.Args[1], regalloc.ScratchB)
	d := c.destGPR(in.Res)
	c.emitBinRR(intBinOps[in.Op], in.Op.Commutative(), d, a, b)
	c.flushGPR(in.Res, d)
}

// emitBinRR emits d = a op b for a two-address register-register op,
// whatever registers d, a and b alias.
func (c *ctx) emitBinRR(op asm.Op, commut bool, d, a, b asm.Reg) {
	switch {
	case d == a:
		c.emit(asm.Inst{Op: op, Dst: d, Src: b})
	case d == b && commut:
		c.emit(asm.Inst{Op: op, Dst: d, Src: a})
	case d == b:
		// d aliases the right operand of a non-commutative op: preserve
		// it in scratch first.
		c.emit(asm.Inst{Op: asm.OpMovRR, Dst: regalloc.ScratchB, Src: b})
		c.emit(asm.Inst{Op: asm.OpMovRR, Dst: d, Src: a})
		c.emit(asm.Inst{Op: op, Dst: d, Src: regalloc.ScratchB})
	default:
		c.emit(asm.Inst{Op: asm.OpMovRR, Dst: d, Src: a})
		c.emit(asm.Inst{Op: op, Dst: d, Src: b})
	}
}

// lowerDiv lowers a div or mod, which divides by in.Ty's signedness and
// width. The RI form prepass rewrite 1 gives a constant divisor expands
// by its divPlan. ScratchB is free there (an RI form has no second
// operand), and so is ScratchA unless it holds the dividend or the
// result; a plan that needs a second scratch it does not get loads the
// constant into ScratchB and divides with idiv/div after all.
func (c *ctx) lowerDiv(in *ir.Inst, a asm.Reg) {
	if len(in.Args) == 2 {
		b := c.readGPR(in.Args[1], regalloc.ScratchB)
		d := c.destGPR(in.Res)
		c.emitBinRR(divOp(in), false, d, a, b)
		c.flushGPR(in.Res, d)
		return
	}
	d := c.destGPR(in.Res)
	u := regalloc.ScratchA
	if a == u || d == u {
		u = asm.NoReg
	}
	var buf [12]asm.Inst
	seq := buf[:0]
	p, ok := planDiv(in.Imm, in.Ty.SizeOf(), in.Ty.Signed)
	if ok {
		seq, ok = p.emit(seq, in.Op == ir.OpMod, d, a, regalloc.ScratchB, u)
	}
	if ok {
		for _, i := range seq {
			c.emit(i)
		}
	} else {
		c.emit(asm.Inst{Op: asm.OpMovRI, Dst: regalloc.ScratchB, Imm: in.Imm})
		c.emitBinRR(divOp(in), false, d, a, regalloc.ScratchB)
	}
	c.invalidateChecks(regalloc.ScratchB)
	if u != asm.NoReg {
		c.invalidateChecks(u)
	}
	c.flushGPR(in.Res, d)
}

// divOp returns the divide instruction of a div or mod.
func divOp(in *ir.Inst) asm.Op {
	switch {
	case in.Op == ir.OpDiv && !in.Ty.Signed:
		return asm.OpUDivRR
	case !in.Ty.Signed:
		return asm.OpUModRR
	case in.Op == ir.OpDiv:
		return asm.OpDivRR
	}
	return asm.OpModRR
}

var fltBinOps = map[ir.Op]asm.Op{
	ir.OpFAdd: asm.OpFAdd, ir.OpFSub: asm.OpFSub,
	ir.OpFMul: asm.OpFMul, ir.OpFDiv: asm.OpFDiv,
}

func (c *ctx) lowerFloatBin(in *ir.Inst) {
	a := c.readFPR(in.Args[0], regalloc.ScratchFA)
	b := c.readFPR(in.Args[1], regalloc.ScratchFB)
	d := c.destFPR(in.Res)
	op := fltBinOps[in.Op]
	switch {
	case d == a:
		c.emit(asm.Inst{Op: op, FDst: d, FSrc: b})
	case d == b && (in.Op == ir.OpFAdd || in.Op == ir.OpFMul):
		c.emit(asm.Inst{Op: op, FDst: d, FSrc: a})
	case d == b:
		c.emit(asm.Inst{Op: asm.OpFMovRR, FDst: regalloc.ScratchFB, FSrc: b})
		c.emit(asm.Inst{Op: asm.OpFMovRR, FDst: d, FSrc: a})
		c.emit(asm.Inst{Op: op, FDst: d, FSrc: regalloc.ScratchFB})
	default:
		if d != a {
			c.emit(asm.Inst{Op: asm.OpFMovRR, FDst: d, FSrc: a})
		}
		c.emit(asm.Inst{Op: op, FDst: d, FSrc: b})
	}
	c.flushFPR(in.Res, d)
}

// icmpConds and fcmpConds are the setcc/jcc condition of each predicate.
// A float compare sets the flags as an unsigned one does, whatever the
// predicate's sign.
var icmpConds = [...]asm.Cond{
	ir.PredEQ: asm.CondE, ir.PredNE: asm.CondNE, ir.PredSLT: asm.CondL, ir.PredSLE: asm.CondLE,
	ir.PredSGT: asm.CondG, ir.PredSGE: asm.CondGE, ir.PredULT: asm.CondB, ir.PredULE: asm.CondBE,
	ir.PredUGT: asm.CondA, ir.PredUGE: asm.CondAE,
}

var fcmpConds = [...]asm.Cond{
	ir.PredEQ: asm.CondE, ir.PredNE: asm.CondNE, ir.PredSLT: asm.CondB, ir.PredSLE: asm.CondBE,
	ir.PredSGT: asm.CondA, ir.PredSGE: asm.CondAE, ir.PredULT: asm.CondB, ir.PredULE: asm.CondBE,
	ir.PredUGT: asm.CondA, ir.PredUGE: asm.CondAE,
}

func (c *ctx) lowerAddrOf(in *ir.Inst) {
	al := in.A
	d := c.destGPR(in.Res)
	if !c.v.private(al.Type.Qual) {
		c.emit(asm.Inst{Op: asm.OpLea, Dst: d,
			M: asm.Mem{Base: asm.RSP, Index: asm.NoReg, Disp: int32(al.FrameOff), Size: 8}})
		c.flushGPR(in.Res, d)
		return
	}
	// Private stack object: its address is rsp + off + privBase. Under
	// the segmentation scheme the private segment is tens of GB away, so
	// the offset does not fit a 32-bit displacement and needs the
	// "extra support" sequence the paper describes (§3).
	total := int64(al.FrameOff) + c.privBase
	if total <= math.MaxInt32 && total >= math.MinInt32 {
		c.emit(asm.Inst{Op: asm.OpLea, Dst: d,
			M: asm.Mem{Base: asm.RSP, Index: asm.NoReg, Disp: int32(total), Size: 8}})
	} else {
		c.emit(asm.Inst{Op: asm.OpLea, Dst: d,
			M: asm.Mem{Base: asm.RSP, Index: asm.NoReg, Disp: int32(al.FrameOff), Size: 8}})
		c.emit(asm.Inst{Op: asm.OpMovRI, Dst: regalloc.ScratchB, Imm: c.privBase})
		c.emit(asm.Inst{Op: asm.OpAddRR, Dst: d, Src: regalloc.ScratchB})
	}
	c.flushGPR(in.Res, d)
}

// lowerCall emits argument setup, the (possibly CFI-checked) transfer, the
// return-site magic word and result capture.
func (c *ctx) lowerCall(in *ir.Inst) error {
	args := in.Args
	indirect := in.Op == ir.OpICall
	var sig *types.FuncSig
	if indirect {
		args = in.Args[1:]
		fnTy := c.f.ValueType(in.Args[0])
		if sig = types.SigOf(fnTy); sig == nil {
			return fmt.Errorf("indirect call through non-function type %s", fnTy)
		}
	} else {
		callee := c.mod.Func(in.Callee)
		if callee == nil {
			return fmt.Errorf("call to unknown function %s", in.Callee)
		}
		sig = callee.Sig
	}
	expectBits, retBit := c.v.cfiBits(sig)

	// 1. Indirect target into R10 before any argument staging.
	if indirect {
		fp := c.readGPR(in.Args[0], regalloc.ScratchA)
		if fp != regalloc.ScratchA {
			c.emit(asm.Inst{Op: asm.OpMovRR, Dst: regalloc.ScratchA, Src: fp})
		}
	}

	// 2. Stack arguments.
	if sig.Variadic {
		// All arguments travel on the public stack (our varargs ABI).
		for i, av := range args {
			v := c.readGPR(av, regalloc.ScratchB)
			m := c.stackOperand(int64(8*i), 8, false)
			c.emit(asm.Inst{Op: asm.OpStore, M: m, Src: v})
		}
	} else {
		for i := 4; i < len(args); i++ {
			private := false
			if i < len(sig.Params) {
				private = c.v.private(sig.Params[i].Qual)
			}
			v := c.readGPR(args[i], regalloc.ScratchB)
			m := c.stackOperand(int64(8*(i-4)), 8, private)
			c.emit(asm.Inst{Op: asm.OpStore, M: m, Src: v})
		}
		// 3. Register arguments (parallel move).
		var regMoves []move
		type memArg struct {
			v   ir.Value
			dst asm.Reg
		}
		var memArgs []memArg
		for i := 0; i < 4 && i < len(args); i++ {
			loc := c.ra.Locs[args[i]]
			if loc.Kind == regalloc.LocReg {
				regMoves = append(regMoves, move{src: loc.Reg,
					dst: regalloc.Loc{Kind: regalloc.LocReg, Reg: asm.ArgRegs[i]}})
			} else {
				memArgs = append(memArgs, memArg{args[i], asm.ArgRegs[i]})
			}
		}
		c.parallelMove(regMoves)
		for _, ma := range memArgs {
			v := c.readGPR(ma.v, ma.dst)
			if v != ma.dst {
				c.emit(asm.Inst{Op: asm.OpMovRR, Dst: ma.dst, Src: v})
			}
		}
	}

	// 4. Transfer.
	if indirect {
		if c.conf.CFI {
			// cmp [r10], ~^(MCall|bits); jne trap; add r10, 8; icall r10
			c.emitRel(asm.Inst{Op: asm.OpMovRI, Dst: regalloc.ScratchB, Imm: int64(expectBits)},
				RelCallMagicNot, "", 0)
			c.emit(asm.Inst{Op: asm.OpNot, Dst: regalloc.ScratchB})
			c.emit(asm.Inst{Op: asm.OpCmpMR,
				M:   asm.Mem{Base: regalloc.ScratchA, Index: asm.NoReg, Size: 8},
				Src: regalloc.ScratchB})
			c.emitRel(asm.Inst{Op: asm.OpJcc, Cond: asm.CondNE}, RelTrap, "", 0)
			c.emit(asm.Inst{Op: asm.OpAddRI, Dst: regalloc.ScratchA, Imm: 8})
		}
		c.emit(asm.Inst{Op: asm.OpICall, Src: regalloc.ScratchA})
	} else {
		c.emitRel(asm.Inst{Op: asm.OpCall}, RelFunc, in.Callee, 0)
	}
	if c.conf.CFI {
		c.fc.Items = append(c.fc.Items, Item{Magic: true, MagicCall: false,
			MagicBits: retBit, Label: -1})
	}
	// The callee clobbered caller-saved registers and any coalesced
	// check state.
	clear(c.checked)

	// 5. Result.
	if in.Res != ir.NoValue {
		rt := c.f.ValueType(in.Res)
		if rt != nil && rt.Kind == types.Float {
			d := c.destFPR(in.Res)
			c.emit(asm.Inst{Op: asm.OpMovQIF, FDst: d, Src: asm.RetReg})
			c.flushFPR(in.Res, d)
		} else {
			c.storeLoc(c.ra.Locs[in.Res], asm.RetReg)
		}
	}
	return nil
}

// lowerUnsignedToFP converts an unsigned 64-bit integer x, which cvt
// would read as signed, to the nearest double without a branch. With
// h = x >> 63, y = (x >> h) | (x & h) is x below 2^63 and otherwise x
// halved with the bit it loses or'ed back in (round to odd), so that
// d = cvt(y) * (1 + cvt(h)) rounds as converting x would: the doubling is
// exact. It computes y as (x | (x & h) << 1) >> h, which keeps x's top
// bit for the second h, in the two scratch registers.
func (c *ctx) lowerUnsignedToFP(in *ir.Inst) {
	a, b, fb := regalloc.ScratchA, regalloc.ScratchB, regalloc.ScratchFB
	if x := c.readGPR(in.Args[0], a); x != a {
		c.emit(asm.Inst{Op: asm.OpMovRR, Dst: a, Src: x})
	}
	h := func() {
		c.emit(asm.Inst{Op: asm.OpMovRR, Dst: b, Src: a})
		c.emit(asm.Inst{Op: asm.OpShrRI, Dst: b, Imm: 63})
	}
	h()
	c.emit(asm.Inst{Op: asm.OpAndRR, Dst: b, Src: a})
	c.emit(asm.Inst{Op: asm.OpShlRI, Dst: b, Imm: 1})
	c.emit(asm.Inst{Op: asm.OpOrRR, Dst: a, Src: b})
	h()
	c.emit(asm.Inst{Op: asm.OpShrRR, Dst: a, Src: b})
	d := c.destFPR(in.Res)
	c.emit(asm.Inst{Op: asm.OpCvtIF, FDst: fb, Src: b})
	c.emit(asm.Inst{Op: asm.OpFMovI, FDst: d, Imm: int64(math.Float64bits(1))})
	c.emit(asm.Inst{Op: asm.OpFAdd, FDst: fb, FSrc: d})
	c.emit(asm.Inst{Op: asm.OpCvtIF, FDst: d, Src: a})
	c.emit(asm.Inst{Op: asm.OpFMul, FDst: d, FSrc: fb})
	c.flushFPR(in.Res, d)
}
