package verify_test

import (
	"errors"
	"strings"
	"testing"

	"confllvm"
	"confllvm/internal/asm"
	"confllvm/internal/link"
	"confllvm/internal/verify"
)

// Hand-picked magic prefixes for synthetic images (low 5 bits clear, and
// byte patterns that cannot collide with any encoded operand below).
const (
	synthMCall uint64 = 0x6b3a77d1905c4a40
	synthMRet  uint64 = 0x39f2c58e17ba6d20
)

// ib builds a synthetic code image byte by byte: magic words, encoded
// instructions and raw bytes, at known offsets. The verifier takes only
// code + prefixes + layout + config, so a hand-built image pins error
// offsets exactly.
type ib struct {
	code   []byte
	layout link.Layout
}

func (b *ib) off() int          { return len(b.code) }
func (b *ib) addr() uint64      { return b.layout.CodeBase + uint64(len(b.code)) }
func (b *ib) at(off int) uint64 { return b.layout.CodeBase + uint64(off) }

func (b *ib) mcall(bits uint8) int {
	off := len(b.code)
	b.code = asm.AppendMagic(b.code, synthMCall|uint64(bits))
	return off
}

func (b *ib) mret(bits uint8) int {
	off := len(b.code)
	b.code = asm.AppendMagic(b.code, synthMRet|uint64(bits))
	return off
}

func (b *ib) emit(in asm.Inst) int {
	off := len(b.code)
	b.code = asm.Encode(b.code, in)
	return off
}

func (b *ib) raw(bs ...byte) int {
	off := len(b.code)
	b.code = append(b.code, bs...)
	return off
}

func (b *ib) image(v confllvm.Variant) *link.Image {
	conf := v.Config()
	return &link.Image{
		Code:        b.code,
		MCallPrefix: synthMCall,
		MRetPrefix:  synthMRet,
		Layout:      b.layout,
		Config:      conf,
	}
}

// immEndingIn returns a mov immediate whose top bytes encode in, so that
// decoding from inside the mov yields in and then resynchronizes at the
// mov's fall-through.
func immEndingIn(in asm.Inst) int64 {
	enc := asm.Encode(nil, in)
	var imm uint64
	for i, c := range enc {
		imm |= uint64(c) << (8 * (8 - len(enc) + i))
	}
	return int64(imm)
}

// TestVerifyErrorPaths drives every structural, CFG and dataflow rejection
// through hand-built images and pins the exact Error{Off, Msg} each one
// must produce — under the serial and the parallel verifier alike.
func TestVerifyErrorPaths(t *testing.T) {
	mem8 := func(base asm.Reg, seg asm.Seg, use32 bool) asm.Mem {
		return asm.Mem{Seg: seg, Base: base, Index: asm.NoReg, Size: 8, Use32: use32}
	}

	cases := []struct {
		name    string
		variant confllvm.Variant
		strict  bool
		// build emits one image and returns the wanted error offset and
		// message (substring match for errors that embed decode details).
		build func(b *ib) (int, string)
	}{
		{"plain-ret", confllvm.VariantSeg, false, func(b *ib) (int, string) {
			b.mcall(0)
			off := b.emit(asm.Inst{Op: asm.OpRet})
			return off, "plain ret is forbidden under taint-aware CFI"
		}},
		{"syscall", confllvm.VariantSeg, false, func(b *ib) (int, string) {
			b.mcall(0)
			off := b.emit(asm.Inst{Op: asm.OpSyscall})
			return off, "syscall in untrusted code"
		}},
		{"segment-write", confllvm.VariantSeg, false, func(b *ib) (int, string) {
			b.mcall(0)
			off := b.emit(asm.Inst{Op: asm.OpWrFS, Src: asm.RAX})
			return off, "segment register write in untrusted code"
		}},
		{"jmp-outside-code", confllvm.VariantSeg, false, func(b *ib) (int, string) {
			b.mcall(0)
			off := b.emit(asm.Inst{Op: asm.OpJmp, Imm: 0})
			return off, "jump target outside code"
		}},
		{"jcc-outside-code", confllvm.VariantSeg, false, func(b *ib) (int, string) {
			b.mcall(0)
			off := b.emit(asm.Inst{Op: asm.OpJcc, Cond: asm.CondE, Imm: 0})
			return off, "jcc target outside code"
		}},
		{"undecodable", confllvm.VariantSeg, false, func(b *ib) (int, string) {
			b.mcall(0)
			off := b.raw(0xEE)
			return off, "undecodable instruction"
		}},
		{"call-without-retsite", confllvm.VariantSeg, false, func(b *ib) (int, string) {
			b.mcall(0)
			off := b.emit(asm.Inst{Op: asm.OpCall, Imm: int64(b.addr())})
			b.emit(asm.Inst{Op: asm.OpTrap})
			return off, "call without a return-site MRet magic word"
		}},
		{"call-not-an-entry", confllvm.VariantSeg, false, func(b *ib) (int, string) {
			b.mcall(0)
			callLen := asm.EncodedLen(asm.OpCall)
			// Target the trap after the return site: decodable code, but
			// not preceded by an MCall word.
			target := b.at(b.off() + callLen + 8)
			off := b.emit(asm.Inst{Op: asm.OpCall, Imm: int64(target)})
			b.mret(0)
			b.emit(asm.Inst{Op: asm.OpTrap})
			return off, "call target is not a procedure entry"
		}},
		{"stub-outside-externals-table", confllvm.VariantSeg, false, func(b *ib) (int, string) {
			b.mcall(0)
			off := b.emit(asm.Inst{Op: asm.OpMovRI, Dst: asm.R11, Imm: 0x123456})
			b.emit(asm.Inst{Op: asm.OpLoad, Dst: asm.R11, M: mem8(asm.R11, asm.SegNone, false)})
			b.emit(asm.Inst{Op: asm.OpJmpR, Src: asm.R11})
			return off, "stub jumps through an address outside the externals table"
		}},
		{"icall-without-sequence", confllvm.VariantSeg, false, func(b *ib) (int, string) {
			b.mcall(0)
			off := b.emit(asm.Inst{Op: asm.OpICall, Src: asm.RAX})
			b.mret(0)
			b.emit(asm.Inst{Op: asm.OpTrap})
			return off, "icall without CFI check sequence"
		}},
		{"jmpr-without-return-idiom", confllvm.VariantSeg, false, func(b *ib) (int, string) {
			b.mcall(0)
			off := b.emit(asm.Inst{Op: asm.OpJmpR, Src: asm.RAX})
			return off, "indirect jump without return idiom"
		}},
		{"icall-idiom-not-adjacent", confllvm.VariantSeg, false, func(b *ib) (int, string) {
			// Every constituent has the right opcode and operands, but the
			// not is decoded from the last two immediate bytes of the mov
			// (a jcc targets them): the two overlap instead of abutting.
			// Each constituent falls through, so an overlapping decode is
			// the only way two consecutive ones can fail to be adjacent.
			b.mcall(0)
			sz := func(op asm.Op) int { return asm.EncodedLen(op) }
			movOff := b.off() + sz(asm.OpJcc)
			notOff := movOff + sz(asm.OpMovRI) - sz(asm.OpNot)
			trapOff := movOff + sz(asm.OpMovRI) + sz(asm.OpCmpMR) + sz(asm.OpJcc) +
				sz(asm.OpAddRI) + sz(asm.OpICall) + 8
			b.emit(asm.Inst{Op: asm.OpJcc, Cond: asm.CondE, Imm: int64(b.at(notOff))})
			b.emit(asm.Inst{Op: asm.OpMovRI, Dst: asm.R11, Imm: immEndingIn(asm.Inst{Op: asm.OpNot, Dst: asm.R11})})
			b.emit(asm.Inst{Op: asm.OpCmpMR, M: mem8(asm.RAX, asm.SegNone, false), Src: asm.R11})
			b.emit(asm.Inst{Op: asm.OpJcc, Cond: asm.CondNE, Imm: int64(b.at(trapOff))})
			b.emit(asm.Inst{Op: asm.OpAddRI, Dst: asm.RAX, Imm: 8})
			off := b.emit(asm.Inst{Op: asm.OpICall, Src: asm.RAX})
			b.mret(0)
			b.emit(asm.Inst{Op: asm.OpTrap})
			return off, "icall check idiom malformed"
		}},
		{"return-idiom-not-adjacent", confllvm.VariantSeg, false, func(b *ib) (int, string) {
			// The return-idiom twin of icall-idiom-not-adjacent: the not
			// overlaps the tail of the mov's immediate.
			b.mcall(0)
			sz := func(op asm.Op) int { return asm.EncodedLen(op) }
			movOff := b.off() + sz(asm.OpJcc) + sz(asm.OpPop)
			notOff := movOff + sz(asm.OpMovRI) - sz(asm.OpNot)
			trapOff := movOff + sz(asm.OpMovRI) + sz(asm.OpCmpMR) + sz(asm.OpJcc) +
				sz(asm.OpAddRI) + sz(asm.OpJmpR)
			b.emit(asm.Inst{Op: asm.OpJcc, Cond: asm.CondE, Imm: int64(b.at(notOff))})
			b.emit(asm.Inst{Op: asm.OpPop, Dst: asm.R10})
			b.emit(asm.Inst{Op: asm.OpMovRI, Dst: asm.R11, Imm: immEndingIn(asm.Inst{Op: asm.OpNot, Dst: asm.R11})})
			b.emit(asm.Inst{Op: asm.OpCmpMR, M: mem8(asm.R10, asm.SegNone, false), Src: asm.R11})
			b.emit(asm.Inst{Op: asm.OpJcc, Cond: asm.CondNE, Imm: int64(b.at(trapOff))})
			b.emit(asm.Inst{Op: asm.OpAddRI, Dst: asm.R10, Imm: 8})
			off := b.emit(asm.Inst{Op: asm.OpJmpR, Src: asm.R10})
			b.emit(asm.Inst{Op: asm.OpTrap})
			return off, "return idiom malformed (stray indirect jump)"
		}},
		{"exit-inside-procedure", confllvm.VariantSeg, false, func(b *ib) (int, string) {
			b.mcall(0)
			off := b.emit(asm.Inst{Op: asm.OpExit})
			return off, "exit instruction inside a procedure"
		}},
		{"control-falls-into-gap", confllvm.VariantSeg, false, func(b *ib) (int, string) {
			// A jcc targets byte 2 of a mov-immediate, creating an
			// overlapping decode stream: the mov's fall-through leader is
			// not adjacent to it.
			b.mcall(0)
			jccLen := asm.EncodedLen(asm.OpJcc)
			movOff := b.off() + jccLen
			b.emit(asm.Inst{Op: asm.OpJcc, Cond: asm.CondE, Imm: int64(b.at(movOff + 2))})
			// The mov's first immediate byte (at movOff+2) decodes as trap.
			b.emit(asm.Inst{Op: asm.OpMovRI, Dst: asm.RAX, Imm: int64(asm.OpTrap)})
			b.emit(asm.Inst{Op: asm.OpTrap})
			return movOff, "control falls into a gap"
		}},
		{"private-arg-at-public-call", confllvm.VariantSeg, false, func(b *ib) (int, string) {
			// Callee F declares a public rcx; the caller's entry bits make
			// rcx private and pass it straight to F.
			fEntry := b.mcall(0) + 8
			b.emit(asm.Inst{Op: asm.OpTrap})
			b.mcall(1) // caller: rcx private on entry
			off := b.emit(asm.Inst{Op: asm.OpCall, Imm: int64(b.at(fEntry))})
			b.mret(0)
			b.emit(asm.Inst{Op: asm.OpTrap})
			return off, "private argument register rcx at a public-argument call site"
		}},
		{"private-ret-at-public-retsite", confllvm.VariantSeg, false, func(b *ib) (int, string) {
			// A full, well-formed return idiom with ret bit 0 while rax
			// still carries its conservative private entry taint.
			b.mcall(0)
			sz := func(op asm.Op) int { return asm.EncodedLen(op) }
			trapOff := b.off() + sz(asm.OpPop) + sz(asm.OpMovRI) + sz(asm.OpNot) +
				sz(asm.OpCmpMR) + sz(asm.OpJcc) + sz(asm.OpAddRI) + sz(asm.OpJmpR)
			b.emit(asm.Inst{Op: asm.OpPop, Dst: asm.R10})
			mretWord := synthMRet // force non-constant: ^ of the typed constant overflows int64
			b.emit(asm.Inst{Op: asm.OpMovRI, Dst: asm.R11, Imm: int64(^mretWord)})
			b.emit(asm.Inst{Op: asm.OpNot, Dst: asm.R11})
			b.emit(asm.Inst{Op: asm.OpCmpMR, M: mem8(asm.R10, asm.SegNone, false), Src: asm.R11})
			b.emit(asm.Inst{Op: asm.OpJcc, Cond: asm.CondNE, Imm: int64(b.at(trapOff))})
			b.emit(asm.Inst{Op: asm.OpAddRI, Dst: asm.R10, Imm: 8})
			off := b.emit(asm.Inst{Op: asm.OpJmpR, Src: asm.R10})
			b.emit(asm.Inst{Op: asm.OpTrap})
			return off, "private return value at a public return site"
		}},
		{"seg-operand-without-use32", confllvm.VariantSeg, false, func(b *ib) (int, string) {
			b.mcall(0)
			off := b.emit(asm.Inst{Op: asm.OpLoad, Dst: asm.RBX, M: mem8(asm.RAX, asm.SegFS, false)})
			b.emit(asm.Inst{Op: asm.OpTrap})
			return off, "segment-scheme operand without 32-bit constraint"
		}},
		{"seg-operand-unprefixed", confllvm.VariantSeg, false, func(b *ib) (int, string) {
			b.mcall(0)
			off := b.emit(asm.Inst{Op: asm.OpLoad, Dst: asm.RBX, M: mem8(asm.RAX, asm.SegNone, true)})
			b.emit(asm.Inst{Op: asm.OpTrap})
			return off, "unprefixed memory operand under segmentation scheme"
		}},
		{"private-store-to-public", confllvm.VariantSeg, false, func(b *ib) (int, string) {
			b.mcall(1) // rcx private on entry
			off := b.emit(asm.Inst{Op: asm.OpStore, M: mem8(asm.RAX, asm.SegFS, true), Src: asm.RCX})
			b.emit(asm.Inst{Op: asm.OpTrap})
			return off, "private register stored to public memory"
		}},
		{"private-push", confllvm.VariantSeg, false, func(b *ib) (int, string) {
			b.mcall(1)
			off := b.emit(asm.Inst{Op: asm.OpPush, Src: asm.RCX})
			b.emit(asm.Inst{Op: asm.OpTrap})
			return off, "private register pushed to the public stack"
		}},
		{"mpx-missing-bound-checks", confllvm.VariantMPX, false, func(b *ib) (int, string) {
			b.mcall(0)
			off := b.emit(asm.Inst{Op: asm.OpLoad, Dst: asm.RBX, M: mem8(asm.RAX, asm.SegNone, false)})
			b.emit(asm.Inst{Op: asm.OpTrap})
			return off, "memory operand without MPX bound checks"
		}},
		{"mpx-ambiguous-bound-checks", confllvm.VariantMPX, false, func(b *ib) (int, string) {
			b.mcall(0)
			b.emit(asm.Inst{Op: asm.OpBndCLReg, Src: asm.RAX, Bnd: asm.BND0})
			b.emit(asm.Inst{Op: asm.OpBndCUReg, Src: asm.RAX, Bnd: asm.BND0})
			b.emit(asm.Inst{Op: asm.OpBndCLReg, Src: asm.RAX, Bnd: asm.BND1})
			b.emit(asm.Inst{Op: asm.OpBndCUReg, Src: asm.RAX, Bnd: asm.BND1})
			off := b.emit(asm.Inst{Op: asm.OpLoad, Dst: asm.RBX, M: mem8(asm.RAX, asm.SegNone, false)})
			b.emit(asm.Inst{Op: asm.OpTrap})
			return off, "ambiguous bound checks on operand base"
		}},
		{"arbitrary-rsp-write", confllvm.VariantSeg, false, func(b *ib) (int, string) {
			b.mcall(0)
			off := b.emit(asm.Inst{Op: asm.OpMovRR, Dst: asm.RSP, Src: asm.RAX})
			b.emit(asm.Inst{Op: asm.OpTrap})
			return off, "arbitrary rsp modification"
		}},
		{"frame-without-chksp", confllvm.VariantMPX, false, func(b *ib) (int, string) {
			entry := b.mcall(0) + 8
			b.emit(asm.Inst{Op: asm.OpSubRI, Dst: asm.RSP, Imm: 32})
			b.emit(asm.Inst{Op: asm.OpTrap})
			return entry, "frame allocation without a chksp stack check"
		}},
		{"strict-private-branch", confllvm.VariantSeg, true, func(b *ib) (int, string) {
			b.mcall(1) // rcx private
			cmpLen := asm.EncodedLen(asm.OpCmpRR)
			jccLen := asm.EncodedLen(asm.OpJcc)
			trapAddr := b.at(b.off() + cmpLen + jccLen)
			b.emit(asm.Inst{Op: asm.OpCmpRR, Dst: asm.RCX, Src: asm.RCX})
			off := b.emit(asm.Inst{Op: asm.OpJcc, Cond: asm.CondE, Imm: int64(trapAddr)})
			b.emit(asm.Inst{Op: asm.OpTrap})
			return off, "branch on private data (implicit flow)"
		}},
		{"stray-mret-word", confllvm.VariantSeg, false, func(b *ib) (int, string) {
			b.mcall(0)
			b.emit(asm.Inst{Op: asm.OpTrap})
			off := b.mret(0)
			// Followed by a nop, not an exit: no shim legitimization.
			b.emit(asm.Inst{Op: asm.OpNop})
			return off, "stray MRet magic word"
		}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := &ib{layout: link.LayoutFor(tc.variant.Config())}
			wantOff, wantMsg := tc.build(b)
			img := b.image(tc.variant)

			check := func(par int) {
				err := verify.Verify(img, verify.Options{Strict: tc.strict, Parallel: par})
				if err == nil {
					t.Fatalf("parallel=%d: image accepted, want Error{%#x, %q}", par, wantOff, wantMsg)
				}
				var verr *verify.Error
				if !errors.As(err, &verr) {
					t.Fatalf("parallel=%d: not a structured verify.Error: %v", par, err)
				}
				if verr.Off != wantOff || !strings.Contains(verr.Msg, wantMsg) {
					t.Fatalf("parallel=%d: got Error{%#x, %q}, want Error{%#x, %q}",
						par, verr.Off, verr.Msg, wantOff, wantMsg)
				}
			}
			check(1)
			check(8)
		})
	}
}
