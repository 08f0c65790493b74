package asm

import (
	"encoding/binary"
	"fmt"
)

// opKind is an operand form. An opcode's form, named in its opTable row,
// fixes its byte layout, its decoding and its listing.
type opKind uint8

const (
	kNone opKind = iota
	kR           // Dst
	kRsrc        // Src
	kRR          // Dst, Src
	kRI          // Dst, Imm64
	kRM          // Dst, Mem
	kMR          // Mem, Src
	kI           // Imm64
	kCI          // Cond, Imm64
	kCR          // Cond, Dst
	kMB          // Mem, Bnd
	kRB          // Src, Bnd
	kFM          // FDst, Mem
	kMF          // Mem, FSrc
	kFF          // FDst, FSrc
	kFI          // FDst, Imm64
	kFR          // FDst, Src
	kRF          // Dst, FSrc
)

const memEncLen = 8

// formLen is the operand byte length of each operand form.
var formLen = [...]uint8{
	kNone: 0, kR: 1, kRsrc: 1, kRR: 2, kRI: 9, kRM: 1 + memEncLen,
	kMR: memEncLen + 1, kI: 8, kCI: 9, kCR: 2, kMB: memEncLen + 1,
	kRB: 2, kFM: 1 + memEncLen, kMF: memEncLen + 1, kFF: 2, kFI: 9,
	kFR: 2, kRF: 2,
}

// EncodedLen returns the encoded byte length of an instruction with the
// given opcode (1 opcode byte plus operand bytes), or 0 for an undefined
// opcode.
func EncodedLen(op Op) int {
	if !op.valid() {
		return 0
	}
	return 1 + int(formLen[opTable[op].form])
}

func scaleLog2(s uint8) uint8 {
	switch s {
	case 0, 1:
		return 0
	case 2:
		return 1
	case 4:
		return 2
	case 8:
		return 3
	}
	return 0
}

func sizeLog2(s uint8) uint8 {
	switch s {
	case 0, 1:
		return 0
	case 2:
		return 1
	case 4:
		return 2
	case 8:
		return 3
	}
	return 3
}

func encodeMem(b []byte, m Mem) {
	flags := uint8(m.Seg) & 3
	if m.Use32 {
		flags |= 1 << 2
	}
	flags |= scaleLog2(m.Scale) << 3
	flags |= sizeLog2(m.Size) << 5
	if m.Signed {
		flags |= 1 << 7
	}
	b[0] = flags
	b[1] = uint8(m.Base)
	b[2] = uint8(m.Index)
	binary.LittleEndian.PutUint32(b[3:], uint32(m.Disp))
	b[7] = 0
}

func decodeMem(b []byte) Mem {
	flags := b[0]
	m := Mem{
		Seg:    Seg(flags & 3),
		Use32:  flags&(1<<2) != 0,
		Scale:  1 << ((flags >> 3) & 3),
		Size:   1 << ((flags >> 5) & 3),
		Signed: flags&(1<<7) != 0,
		Base:   Reg(b[1]),
		Index:  Reg(b[2]),
		Disp:   int32(binary.LittleEndian.Uint32(b[3:])),
	}
	return m
}

// Encode appends the encoding of inst to buf and returns the extended slice.
func Encode(buf []byte, inst Inst) []byte {
	op := inst.Op
	buf = append(buf, byte(op))
	var tmp [16]byte
	switch opTable[op].form {
	case kNone:
	case kR:
		buf = append(buf, byte(inst.Dst))
	case kRsrc:
		buf = append(buf, byte(inst.Src))
	case kRR:
		buf = append(buf, byte(inst.Dst), byte(inst.Src))
	case kRI:
		buf = append(buf, byte(inst.Dst))
		binary.LittleEndian.PutUint64(tmp[:8], uint64(inst.Imm))
		buf = append(buf, tmp[:8]...)
	case kRM:
		buf = append(buf, byte(inst.Dst))
		encodeMem(tmp[:memEncLen], inst.M)
		buf = append(buf, tmp[:memEncLen]...)
	case kMR:
		encodeMem(tmp[:memEncLen], inst.M)
		buf = append(buf, tmp[:memEncLen]...)
		buf = append(buf, byte(inst.Src))
	case kI:
		binary.LittleEndian.PutUint64(tmp[:8], uint64(inst.Imm))
		buf = append(buf, tmp[:8]...)
	case kCI:
		buf = append(buf, byte(inst.Cond))
		binary.LittleEndian.PutUint64(tmp[:8], uint64(inst.Imm))
		buf = append(buf, tmp[:8]...)
	case kCR:
		buf = append(buf, byte(inst.Cond), byte(inst.Dst))
	case kMB:
		encodeMem(tmp[:memEncLen], inst.M)
		buf = append(buf, tmp[:memEncLen]...)
		buf = append(buf, byte(inst.Bnd))
	case kRB:
		buf = append(buf, byte(inst.Src), byte(inst.Bnd))
	case kFM:
		buf = append(buf, byte(inst.FDst))
		encodeMem(tmp[:memEncLen], inst.M)
		buf = append(buf, tmp[:memEncLen]...)
	case kMF:
		encodeMem(tmp[:memEncLen], inst.M)
		buf = append(buf, tmp[:memEncLen]...)
		buf = append(buf, byte(inst.FSrc))
	case kFF:
		buf = append(buf, byte(inst.FDst), byte(inst.FSrc))
	case kFI:
		buf = append(buf, byte(inst.FDst))
		binary.LittleEndian.PutUint64(tmp[:8], uint64(inst.Imm))
		buf = append(buf, tmp[:8]...)
	case kFR:
		buf = append(buf, byte(inst.FDst), byte(inst.Src))
	case kRF:
		buf = append(buf, byte(inst.Dst), byte(inst.FSrc))
	}
	return buf
}

// Decode decodes one instruction starting at code[off]. It returns the
// instruction and its encoded length. Decoding fails on an unknown opcode
// or a truncated stream — which is exactly what happens when control flow
// lands in the middle of data (such as a magic sequence).
func Decode(code []byte, off int) (Inst, int, error) {
	var inst Inst
	n, err := DecodeInto(&inst, code, off)
	return inst, n, err
}

// DecodeInto decodes one instruction starting at code[off] into *inst,
// returning the encoded length. It is the allocation-free form of Decode
// for callers that decode into long-lived instruction arrays (the
// machine's per-region decode traces).
func DecodeInto(inst *Inst, code []byte, off int) (int, error) {
	if off < 0 || off >= len(code) {
		return 0, fmt.Errorf("asm: decode offset %d out of range", off)
	}
	op := Op(code[off])
	if !op.valid() {
		return 0, fmt.Errorf("asm: invalid opcode 0x%02x at offset %d", code[off], off)
	}
	n := EncodedLen(op)
	if off+n > len(code) {
		return 0, fmt.Errorf("asm: truncated instruction at offset %d", off)
	}
	b := code[off+1 : off+n]
	*inst = Inst{Op: op}
	switch opTable[op].form {
	case kNone:
	case kR:
		inst.Dst = Reg(b[0])
	case kRsrc:
		inst.Src = Reg(b[0])
	case kRR:
		inst.Dst, inst.Src = Reg(b[0]), Reg(b[1])
	case kRI:
		inst.Dst = Reg(b[0])
		inst.Imm = int64(binary.LittleEndian.Uint64(b[1:]))
	case kRM:
		inst.Dst = Reg(b[0])
		inst.M = decodeMem(b[1:])
	case kMR:
		inst.M = decodeMem(b)
		inst.Src = Reg(b[memEncLen])
	case kI:
		inst.Imm = int64(binary.LittleEndian.Uint64(b))
	case kCI:
		inst.Cond = Cond(b[0])
		inst.Imm = int64(binary.LittleEndian.Uint64(b[1:]))
	case kCR:
		inst.Cond = Cond(b[0])
		inst.Dst = Reg(b[1])
	case kMB:
		inst.M = decodeMem(b)
		inst.Bnd = Bnd(b[memEncLen])
	case kRB:
		inst.Src = Reg(b[0])
		inst.Bnd = Bnd(b[1])
	case kFM:
		inst.FDst = FReg(b[0])
		inst.M = decodeMem(b[1:])
	case kMF:
		inst.M = decodeMem(b)
		inst.FSrc = FReg(b[memEncLen])
	case kFF:
		inst.FDst, inst.FSrc = FReg(b[0]), FReg(b[1])
	case kFI:
		inst.FDst = FReg(b[0])
		inst.Imm = int64(binary.LittleEndian.Uint64(b[1:]))
	case kFR:
		inst.FDst, inst.Src = FReg(b[0]), Reg(b[1])
	case kRF:
		inst.Dst, inst.FSrc = Reg(b[0]), FReg(b[1])
	}
	return n, nil
}

// AppendMagic appends a raw 8-byte magic word (little endian) to buf.
// Magic words are data, not instructions: executing one faults, and the
// verifier locates them by scanning for the 59-bit prefix.
func AppendMagic(buf []byte, word uint64) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], word)
	return append(buf, tmp[:]...)
}

// ReadWord reads the 8-byte little-endian word at code[off:].
func ReadWord(code []byte, off int) (uint64, bool) {
	if off < 0 || off+8 > len(code) {
		return 0, false
	}
	return binary.LittleEndian.Uint64(code[off:]), true
}
