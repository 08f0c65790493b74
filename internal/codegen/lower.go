package codegen

import (
	"fmt"
	"math"

	"confllvm/internal/asm"
	"confllvm/internal/ir"
	"confllvm/internal/regalloc"
	"confllvm/internal/types"
)

// qualPrivate resolves a qualifier under the active configuration.
func (c *ctx) qualPrivate(q types.Qual) bool {
	if c.conf.IgnoreTaint {
		return false
	}
	return c.a.IsPrivate(q)
}

func (c *ctx) valPrivate(v ir.Value) bool {
	t := c.f.ValueType(v)
	return t != nil && c.qualPrivate(t.Qual)
}

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

// invalidateChecks drops coalesced MPX checks keyed on a clobbered register.
func (c *ctx) invalidateChecks(r asm.Reg) {
	for k := range c.checked {
		if k.reg == r {
			delete(c.checked, k)
		}
	}
}

// memOperand builds the operand for an access of size bytes at the address
// in rb, under the active scheme, emitting MPX checks as needed.
// private selects the region (gs/bnd1 vs fs/bnd0).
func (c *ctx) memOperand(rb asm.Reg, size uint8, signed, private bool) asm.Mem {
	m := asm.Mem{Base: rb, Index: asm.NoReg, Size: size, Signed: signed}
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
		// rsp-relative accesses are covered by the _chkstk discipline.
		if rb == asm.RSP && c.conf.ChkStk && !c.conf.NoMPXOpt {
			break
		}
		// Block-local coalescing: skip a check already emitted for the
		// same register and bound with no intervening clobber or call.
		key := checkKey{rb, bnd}
		if c.checked[key] && !c.conf.NoMPXOpt {
			break
		}
		// Register-operand preference with guard-displacement elision:
		// our addresses are fully computed in rb (disp 0), so the
		// register form always applies.
		c.emit(asm.Inst{Op: asm.OpBndCLReg, Src: rb, Bnd: bnd})
		c.emit(asm.Inst{Op: asm.OpBndCUReg, Src: rb, Bnd: bnd})
		c.checked[key] = true
	}
	return m
}

// lower translates one IR instruction.
func (c *ctx) lower(in *ir.Inst) error {
	switch in.Op {
	case ir.OpConst:
		d := c.destGPR(in.Res)
		c.emit(asm.Inst{Op: asm.OpMovRI, Dst: d, Imm: in.Imm})
		c.flushGPR(in.Res, d)
	case ir.OpFConst:
		d := c.destFPR(in.Res)
		c.emit(asm.Inst{Op: asm.OpFMovI, FDst: d, Imm: int64(math.Float64bits(in.FImm))})
		c.flushFPR(in.Res, d)

	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpMod, ir.OpAnd, ir.OpOr,
		ir.OpXor, ir.OpShl, ir.OpShr, ir.OpSar:
		c.lowerIntBin(in)

	case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv:
		c.lowerFloatBin(in)

	case ir.OpICmp:
		a := c.readGPR(in.Args[0], regalloc.ScratchA)
		if len(in.Args) == 1 {
			c.emit(asm.Inst{Op: asm.OpCmpRI, Dst: a, Imm: in.Imm})
		} else {
			b := c.readGPR(in.Args[1], regalloc.ScratchB)
			c.emit(asm.Inst{Op: asm.OpCmpRR, Dst: a, Src: b})
		}
		c.setFlags(in.Res, icmpCond(in.Pred), false)
	case ir.OpFCmp:
		a := c.readFPR(in.Args[0], regalloc.ScratchFA)
		b := c.readFPR(in.Args[1], regalloc.ScratchFB)
		c.emit(asm.Inst{Op: asm.OpFCmp, FDst: a, FSrc: b})
		c.setFlags(in.Res, fcmpCond(in.Pred), true)

	case ir.OpLoad:
		rb := c.readGPR(in.Args[0], regalloc.ScratchB)
		private := c.qualPrivate(in.Ty.Qual)
		if in.Ty.Kind == types.Float {
			m := c.memOperand(rb, 8, false, private)
			d := c.destFPR(in.Res)
			c.emit(asm.Inst{Op: asm.OpFLoad, FDst: d, M: m})
			c.flushFPR(in.Res, d)
			break
		}
		size := uint8(in.Ty.SizeOf())
		if size == 0 || size > 8 {
			size = 8
		}
		m := c.memOperand(rb, size, in.Ty.Signed, private)
		d := c.destGPR(in.Res)
		c.emit(asm.Inst{Op: asm.OpLoad, Dst: d, M: m})
		c.flushGPR(in.Res, d)
	case ir.OpStore:
		rb := c.readGPR(in.Args[0], regalloc.ScratchB)
		private := c.qualPrivate(in.Ty.Qual)
		if in.Ty.Kind == types.Float {
			v := c.readFPR(in.Args[1], regalloc.ScratchFA)
			m := c.memOperand(rb, 8, false, private)
			c.emit(asm.Inst{Op: asm.OpFStore, M: m, FSrc: v})
			break
		}
		v := c.readGPR(in.Args[1], regalloc.ScratchA)
		size := uint8(in.Ty.SizeOf())
		if size == 0 || size > 8 {
			size = 8
		}
		m := c.memOperand(rb, size, in.Ty.Signed, private)
		c.emit(asm.Inst{Op: asm.OpStore, M: m, Src: v})

	case ir.OpCopy:
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

	case ir.OpCall, ir.OpICall:
		return c.lowerCall(in)

	case ir.OpTrunc:
		v := c.readGPR(in.Args[0], regalloc.ScratchA)
		d := c.destGPR(in.Res)
		if d != v {
			c.emit(asm.Inst{Op: asm.OpMovRR, Dst: d, Src: v})
		}
		if s := in.Ty.SizeOf(); s < 8 {
			c.emit(asm.Inst{Op: asm.OpAndRI, Dst: d, Imm: int64(1)<<(8*uint(s)) - 1})
		}
		c.flushGPR(in.Res, d)
	case ir.OpZExt:
		v := c.readGPR(in.Args[0], regalloc.ScratchA)
		d := c.destGPR(in.Res)
		if d != v {
			c.emit(asm.Inst{Op: asm.OpMovRR, Dst: d, Src: v})
		}
		if s := c.extSourceSize(in); s < 8 {
			c.emit(asm.Inst{Op: asm.OpAndRI, Dst: d, Imm: int64(1)<<(8*uint(s)) - 1})
		}
		c.flushGPR(in.Res, d)
	case ir.OpSExt:
		v := c.readGPR(in.Args[0], regalloc.ScratchA)
		d := c.destGPR(in.Res)
		if d != v {
			c.emit(asm.Inst{Op: asm.OpMovRR, Dst: d, Src: v})
		}
		if s := c.extSourceSize(in); s < 8 {
			sh := int64(64 - 8*s)
			c.emit(asm.Inst{Op: asm.OpShlRI, Dst: d, Imm: sh})
			c.emit(asm.Inst{Op: asm.OpSarRI, Dst: d, Imm: sh})
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
		disp := c.incomingArgDisp(len(c.f.Params))
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
		} else if c.f.Ret != nil && c.f.Ret.Kind != types.Void {
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

var intBinOps = map[ir.Op]asm.Op{
	ir.OpAdd: asm.OpAddRR, ir.OpSub: asm.OpSubRR, ir.OpMul: asm.OpMulRR,
	ir.OpDiv: asm.OpDivRR, ir.OpMod: asm.OpModRR,
	ir.OpAnd: asm.OpAndRR, ir.OpOr: asm.OpOrRR, ir.OpXor: asm.OpXorRR,
	ir.OpShl: asm.OpShlRR, ir.OpShr: asm.OpShrRR, ir.OpSar: asm.OpSarRR,
}

func commutative(op ir.Op) bool {
	switch op {
	case ir.OpAdd, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor:
		return true
	}
	return false
}

// intImmOps are the register-immediate forms of the ops in intBinOps
// that have one.
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

// extSourceSize is the byte width a zext/sext extends from: its operand's
// width, or the width of a trunc the prepass folded into it.
func (c *ctx) extSourceSize(in *ir.Inst) int {
	if in.Imm != 0 {
		return int(in.Imm)
	}
	return c.f.ValueType(in.Args[0]).SizeOf()
}

func (c *ctx) lowerIntBin(in *ir.Inst) {
	a := c.readGPR(in.Args[0], regalloc.ScratchA)
	if len(in.Args) == 1 {
		// Register-immediate form (see prepass).
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
		c.emit(asm.Inst{Op: intImmOps[in.Op], Dst: d, Imm: in.Imm})
		c.flushGPR(in.Res, d)
		return
	}
	b := c.readGPR(in.Args[1], regalloc.ScratchB)
	d := c.destGPR(in.Res)
	op := intBinOps[in.Op]
	switch {
	case d == a:
		c.emit(asm.Inst{Op: op, Dst: d, Src: b})
	case d == b && commutative(in.Op):
		c.emit(asm.Inst{Op: op, Dst: d, Src: a})
	case d == b:
		// d aliases the right operand of a non-commutative op: preserve
		// it in scratch first.
		c.emit(asm.Inst{Op: asm.OpMovRR, Dst: regalloc.ScratchB, Src: b})
		c.emit(asm.Inst{Op: asm.OpMovRR, Dst: d, Src: a})
		c.emit(asm.Inst{Op: op, Dst: d, Src: regalloc.ScratchB})
	default:
		if d != a {
			c.emit(asm.Inst{Op: asm.OpMovRR, Dst: d, Src: a})
		}
		c.emit(asm.Inst{Op: op, Dst: d, Src: b})
	}
	c.flushGPR(in.Res, d)
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

func icmpCond(p ir.Pred) asm.Cond {
	switch p {
	case ir.PredEQ:
		return asm.CondE
	case ir.PredNE:
		return asm.CondNE
	case ir.PredSLT:
		return asm.CondL
	case ir.PredSLE:
		return asm.CondLE
	case ir.PredSGT:
		return asm.CondG
	case ir.PredSGE:
		return asm.CondGE
	case ir.PredULT:
		return asm.CondB
	case ir.PredULE:
		return asm.CondBE
	case ir.PredUGT:
		return asm.CondA
	case ir.PredUGE:
		return asm.CondAE
	}
	return asm.CondE
}

func fcmpCond(p ir.Pred) asm.Cond {
	switch p {
	case ir.PredEQ:
		return asm.CondE
	case ir.PredNE:
		return asm.CondNE
	case ir.PredSLT, ir.PredULT:
		return asm.CondB
	case ir.PredSLE, ir.PredULE:
		return asm.CondBE
	case ir.PredSGT, ir.PredUGT:
		return asm.CondA
	case ir.PredSGE, ir.PredUGE:
		return asm.CondAE
	}
	return asm.CondE
}

func (c *ctx) lowerAddrOf(in *ir.Inst) {
	al := in.A
	d := c.destGPR(in.Res)
	if !c.allocaPrivate(al) {
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
	var calleeVariadic bool
	var calleeRetBit uint8
	var expectBits uint8
	if indirect {
		fnTy := c.f.ValueType(in.Args[0])
		args = in.Args[1:]
		if fnTy.Kind == types.Ptr && fnTy.Elem.Kind == types.Func {
			sig = fnTy.Elem.Sig
		} else if fnTy.Kind == types.Func {
			sig = fnTy.Sig
		} else {
			return fmt.Errorf("indirect call through non-function type %s", fnTy)
		}
		calleeVariadic = sig.Variadic
		calleeRetBit = c.sigRetBit(sig)
		expectBits = c.sigArgBits(sig)
	} else {
		callee := c.mod.Func(in.Callee)
		if callee == nil {
			return fmt.Errorf("call to unknown function %s", in.Callee)
		}
		sig = &types.FuncSig{Params: callee.Params, Ret: callee.Ret, Variadic: callee.Variadic}
		calleeVariadic = callee.Variadic
		calleeRetBit = retBit(callee, c.a)
		if c.conf.IgnoreTaint {
			calleeRetBit = 0
		}
	}

	// 1. Indirect target into R10 before any argument staging.
	if indirect {
		fp := c.readGPR(in.Args[0], regalloc.ScratchA)
		if fp != regalloc.ScratchA {
			c.emit(asm.Inst{Op: asm.OpMovRR, Dst: regalloc.ScratchA, Src: fp})
		}
	}

	// 2. Stack arguments.
	if calleeVariadic {
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
				private = c.qualPrivate(sig.Params[i].Qual)
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
			MagicBits: calleeRetBit, Label: -1})
	}
	// The callee clobbered caller-saved registers and any coalesced
	// check state.
	clear(c.checked)

	// 5. Result.
	if in.Res != ir.NoValue {
		rt := c.f.ValueType(in.Res)
		if rt != nil && rt.Kind == types.Float {
			loc := c.ra.Locs[in.Res]
			d := c.destFPR(in.Res)
			c.emit(asm.Inst{Op: asm.OpMovQIF, FDst: d, Src: asm.RetReg})
			c.flushFPR(in.Res, d)
			_ = loc
		} else {
			c.storeLoc(c.ra.Locs[in.Res], asm.RetReg)
		}
	}
	return nil
}

// sigArgBits computes callsite-expected CFI taint bits from a signature.
func (c *ctx) sigArgBits(sig *types.FuncSig) uint8 {
	if c.conf.IgnoreTaint {
		return 0
	}
	var bits uint8
	for i := 0; i < 4; i++ {
		private := true
		if !sig.Variadic && i < len(sig.Params) {
			private = c.qualPrivate(sig.Params[i].Qual)
		}
		if private {
			bits |= 1 << i
		}
	}
	if c.sigRetBit(sig) == 1 {
		bits |= 1 << 4
	}
	return bits
}

func (c *ctx) sigRetBit(sig *types.FuncSig) uint8 {
	if c.conf.IgnoreTaint {
		return 0
	}
	if sig.Ret == nil || sig.Ret.Kind == types.Void {
		return 1
	}
	if c.qualPrivate(sig.Ret.Qual) {
		return 1
	}
	return 0
}
