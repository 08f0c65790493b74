// Package asm defines the abstract x64-like instruction set that ConfLLVM's
// code generator targets and that the machine emulator executes.
//
// The ISA keeps exactly the x64 features the ConfLLVM scheme depends on:
//
//   - memory operands of the form [base + index*scale + disp32], optionally
//     prefixed with a segment register (fs or gs) and optionally constrained
//     to the low 32 bits of base and index (the segmentation scheme);
//   - MPX-style bound registers bnd0/bnd1 with bndcl/bndcu check
//     instructions;
//   - push/pop/call/ret with an in-memory return address (so control-flow
//     hijacks are expressible and the taint-aware CFI has something real to
//     defend);
//   - scalar double-precision floating point on a separate register file
//     (so the Privado experiment's FP/MPX port parallelism is observable).
//
// Instructions encode to a variable-length byte stream (see encode.go); the
// verifier disassembles that stream, and magic sequences are raw 8-byte
// words embedded in it.
//
// Every per-opcode fact lives in one table, opTable: the mnemonic, the
// operand form (which fixes the encoding, the decoding and the listing),
// whether the instruction overwrites its Dst register (Inst.WrittenGPR)
// and whether it ends a basic block (Op.EndsBlock). Adding an opcode
// takes:
//
//  1. the constant, after OpNop so that no existing encoding moves;
//  2. one opTable row;
//  3. a case in machine's execRun, plus a staticCost entry if it costs
//     more than one cycle;
//  4. a case in verify's transferBlock allow-list, if untrusted code may
//     use it (its default rejects every opcode it does not name);
//  5. the matching case in verifymut's privAt, which mirrors that taint
//     transfer.
//
// OpMulHiRI (mulh, the high half of a signed 128-bit product that the
// code generator's division by a 64-bit constant needs) is the latest
// opcode added this way.
package asm

import "fmt"

// Reg is a general-purpose 64-bit register. The numbering follows x64.
type Reg uint8

const (
	RAX Reg = iota
	RCX
	RDX
	RBX
	RSP
	RBP
	RSI
	RDI
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
	// NoReg marks an absent base or index register in a memory operand.
	NoReg Reg = 0xFF
)

// NumRegs is the size of the general-purpose register file.
const NumRegs = 16

var regNames = [NumRegs]string{
	"rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
	"r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
}

func (r Reg) String() string {
	if r == NoReg {
		return "-"
	}
	if int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("r?%d", uint8(r))
}

// FReg is a scalar double-precision floating-point register (xmm-like).
type FReg uint8

// NumFRegs is the size of the floating-point register file.
const NumFRegs = 16

func (f FReg) String() string { return fmt.Sprintf("xmm%d", uint8(f)) }

// Seg selects an optional segment-register prefix on a memory operand.
type Seg uint8

const (
	SegNone Seg = iota
	SegFS       // public region base
	SegGS       // private region base
)

func (s Seg) String() string {
	switch s {
	case SegFS:
		return "fs"
	case SegGS:
		return "gs"
	}
	return ""
}

// Bnd selects an MPX bound register.
type Bnd uint8

const (
	BND0 Bnd = iota // public region bounds
	BND1            // private region bounds
)

func (b Bnd) String() string { return fmt.Sprintf("bnd%d", uint8(b)) }

// Cond is a condition code for conditional jumps, mirroring x64 Jcc forms.
type Cond uint8

const (
	CondE  Cond = iota // equal (ZF)
	CondNE             // not equal
	CondL              // signed less
	CondLE             // signed less or equal
	CondG              // signed greater
	CondGE             // signed greater or equal
	CondB              // unsigned below (CF)
	CondBE             // unsigned below or equal
	CondA              // unsigned above
	CondAE             // unsigned above or equal
	CondS              // sign (SF)
	CondNS             // not sign
)

var condNames = [...]string{"e", "ne", "l", "le", "g", "ge", "b", "be", "a", "ae", "s", "ns"}

func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("cc?%d", uint8(c))
}

// negated maps each condition to its complement.
var negated = [...]Cond{
	CondE: CondNE, CondNE: CondE, CondL: CondGE, CondLE: CondG, CondG: CondLE, CondGE: CondL,
	CondB: CondAE, CondBE: CondA, CondA: CondBE, CondAE: CondB, CondS: CondNS, CondNS: CondS,
}

// Negate returns the complementary condition.
func (c Cond) Negate() Cond {
	if int(c) < len(negated) {
		return negated[c]
	}
	return c
}

// Mem is a memory operand: seg:[base + index*scale + disp], accessing Size
// bytes. If Use32 is set, only the low 32 bits of base and index contribute
// to the effective address (the segmentation scheme's addressing mode).
type Mem struct {
	Seg    Seg
	Base   Reg // NoReg if absent
	Index  Reg // NoReg if absent
	Scale  uint8
	Disp   int32
	Size   uint8 // 1, 2, 4 or 8
	Signed bool  // sign-extend loads narrower than 8 bytes
	Use32  bool
}

func (m Mem) String() string {
	s := ""
	if m.Seg != SegNone {
		s = m.Seg.String() + ":"
	}
	s += "["
	first := true
	if m.Base != NoReg {
		if m.Use32 {
			s += "lo32(" + m.Base.String() + ")"
		} else {
			s += m.Base.String()
		}
		first = false
	}
	if m.Index != NoReg {
		if !first {
			s += "+"
		}
		if m.Use32 {
			s += "lo32(" + m.Index.String() + ")"
		} else {
			s += m.Index.String()
		}
		if m.Scale > 1 {
			s += fmt.Sprintf("*%d", m.Scale)
		}
		first = false
	}
	if m.Disp != 0 || first {
		if m.Disp >= 0 && !first {
			s += "+"
		}
		s += fmt.Sprintf("%d", m.Disp)
	}
	s += "]"
	if m.Size != 8 {
		sign := "u"
		if m.Signed {
			sign = "s"
		}
		s += fmt.Sprintf(".%s%d", sign, m.Size*8)
	}
	return s
}

// Op is an opcode.
type Op uint8

const (
	OpInvalid Op = iota

	// Data movement.
	OpMovRR // Dst <- Src
	OpMovRI // Dst <- Imm (64-bit)
	OpLoad  // Dst <- mem (zero/sign extended per M.Size/M.Signed)
	OpStore // mem <- Src (low M.Size bytes)
	OpLea   // Dst <- effective address of M (no segment base applied)
	OpPush  // push Src
	OpPop   // pop into Dst

	// Integer ALU. Two-operand register/register or register/immediate.
	OpAddRR
	OpAddRI
	OpSubRR
	OpSubRI
	OpMulRR
	OpMulRI
	OpDivRR // Dst <- Dst / Src (signed); faults on divide-by-zero
	OpModRR // Dst <- Dst % Src (signed)
	OpAndRR
	OpAndRI
	OpOrRR
	OpOrRI
	OpXorRR
	OpXorRI
	OpShlRR
	OpShlRI
	OpShrRR // logical right shift
	OpShrRI
	OpSarRR // arithmetic right shift
	OpSarRI
	OpNeg
	OpNot

	// Flag-setting comparisons.
	OpCmpRR
	OpCmpRI
	OpCmpMR // compare 8-byte [M] with Src (used by CFI checks)
	OpTestRR
	OpTestRI

	// Conditional materialization.
	OpSetCC // Dst <- 1 if Cond else 0

	// Control flow. Targets are absolute addresses (patched by the linker).
	OpJmp   // jump to Imm
	OpJcc   // conditional jump to Imm
	OpJmpR  // jump to address in Src
	OpCall  // push next-pc; jump to Imm
	OpICall // push next-pc; jump to address in Src
	OpRet   // pop target; jump (plain x64 ret; Base config and T only)
	OpTrap  // CFI-violation trap (__debugbreak)
	OpExit  // terminate the current thread normally; RAX is the exit value

	// MPX bound checks. Fault when the address escapes the bound register.
	OpBndCLMem // check EA(M)            >= bnd.lower
	OpBndCUMem // check EA(M)+M.Size-1   <= bnd.upper
	OpBndCLReg // check Src              >= bnd.lower
	OpBndCUReg // check Src              <= bnd.upper

	// Stack discipline (_chkstk analogue): fault when rsp leaves the
	// current thread's stack bounds.
	OpChkSP

	// Floating point (scalar float64 on the FReg file).
	OpFLoad  // FDst <- [M] (8 bytes)
	OpFStore // [M] <- FSrc
	OpFMovRR // FDst <- FSrc
	OpFMovI  // FDst <- float64 bits in Imm
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFMax
	OpFCmp   // compare FDst with FSrc, set flags (like ucomisd)
	OpCvtIF  // FDst <- float64(Src as signed int)
	OpCvtFI  // Dst <- int64(FSrc), truncating
	OpMovQIF // FDst <- raw bits of Src (movq xmm, r64)
	OpMovQFI // Dst <- raw bits of FSrc (movq r64, xmm)

	// Privileged / rejected-in-U operations. The verifier rejects binaries
	// containing these; the machine executes WrFS/WrGS (for trusted stubs
	// in tests) and faults on Syscall.
	OpWrFS // fs <- Src
	OpWrGS // gs <- Src
	OpSyscall

	OpNop

	// Added after the original opcode set so that no existing encoding
	// moves.
	OpMovsx  // Dst <- Dst sign-extended from its low Imm bytes (movsxd/movsx)
	OpUDivRR // Dst <- Dst / Src (unsigned); faults on divide-by-zero
	OpUModRR // Dst <- Dst % Src (unsigned)
	// Dst <- high 64 bits of the signed 128-bit product Dst * Imm (the
	// rdx half of x64's one-operand imul).
	OpMulHiRI

	numOps
)

// Flags of an opcode's table row.
const (
	// writesDst: the instruction overwrites the GPR named by Dst.
	writesDst uint8 = 1 << iota
	// endsBlock: the instruction sets the next PC non-sequentially, halts
	// the thread or always faults, so no instruction runs after it in a
	// straight line.
	endsBlock
)

// opInfo is one row of the opcode table.
type opInfo struct {
	name  string // mnemonic
	form  opKind // operand form: drives encoding, decoding and printing
	flags uint8
}

// opTable holds every per-opcode fact the ISA defines. Encoding,
// decoding, printing, the verifier's register-write rule and the
// machine's block boundaries are all derived from it.
var opTable = [numOps]opInfo{
	OpMovRR: {"mov", kRR, writesDst}, OpMovRI: {"mov", kRI, writesDst},
	OpLoad: {"load", kRM, writesDst}, OpStore: {"store", kMR, 0},
	OpLea:  {"lea", kRM, writesDst},
	OpPush: {"push", kRsrc, 0}, OpPop: {"pop", kR, writesDst},

	OpAddRR: {"add", kRR, writesDst}, OpAddRI: {"add", kRI, writesDst},
	OpSubRR: {"sub", kRR, writesDst}, OpSubRI: {"sub", kRI, writesDst},
	OpMulRR: {"imul", kRR, writesDst}, OpMulRI: {"imul", kRI, writesDst},
	OpDivRR: {"idiv", kRR, writesDst}, OpModRR: {"imod", kRR, writesDst},
	OpAndRR: {"and", kRR, writesDst}, OpAndRI: {"and", kRI, writesDst},
	OpOrRR: {"or", kRR, writesDst}, OpOrRI: {"or", kRI, writesDst},
	OpXorRR: {"xor", kRR, writesDst}, OpXorRI: {"xor", kRI, writesDst},
	OpShlRR: {"shl", kRR, writesDst}, OpShlRI: {"shl", kRI, writesDst},
	OpShrRR: {"shr", kRR, writesDst}, OpShrRI: {"shr", kRI, writesDst},
	OpSarRR: {"sar", kRR, writesDst}, OpSarRI: {"sar", kRI, writesDst},
	OpNeg: {"neg", kR, writesDst}, OpNot: {"not", kR, writesDst},

	OpCmpRR: {"cmp", kRR, 0}, OpCmpRI: {"cmp", kRI, 0}, OpCmpMR: {"cmp", kMR, 0},
	OpTestRR: {"test", kRR, 0}, OpTestRI: {"test", kRI, 0},
	OpSetCC: {"set", kCR, writesDst},

	OpJmp: {"jmp", kI, endsBlock}, OpJcc: {"j", kCI, endsBlock},
	OpJmpR: {"jmp", kRsrc, endsBlock},
	OpCall: {"call", kI, endsBlock}, OpICall: {"icall", kRsrc, endsBlock},
	OpRet: {"ret", kNone, endsBlock}, OpTrap: {"trap", kNone, endsBlock},
	OpExit: {"exit", kNone, endsBlock},

	OpBndCLMem: {"bndcl", kMB, 0}, OpBndCUMem: {"bndcu", kMB, 0},
	OpBndCLReg: {"bndcl", kRB, 0}, OpBndCUReg: {"bndcu", kRB, 0},
	OpChkSP: {"chksp", kNone, 0},

	OpFLoad: {"movsd", kFM, 0}, OpFStore: {"movsd", kMF, 0},
	OpFMovRR: {"movsd", kFF, 0}, OpFMovI: {"movsd", kFI, 0},
	OpFAdd: {"addsd", kFF, 0}, OpFSub: {"subsd", kFF, 0},
	OpFMul: {"mulsd", kFF, 0}, OpFDiv: {"divsd", kFF, 0},
	OpFMax: {"maxsd", kFF, 0}, OpFCmp: {"ucomisd", kFF, 0},
	OpCvtIF: {"cvtsi2sd", kFR, 0}, OpCvtFI: {"cvtsd2si", kRF, writesDst},
	OpMovQIF: {"movq", kFR, 0}, OpMovQFI: {"movq", kRF, writesDst},

	OpWrFS: {"wrfs", kRsrc, 0}, OpWrGS: {"wrgs", kRsrc, 0},
	OpSyscall: {"syscall", kNone, endsBlock}, OpNop: {"nop", kNone, 0},

	OpMovsx:  {"movsx", kRI, writesDst},
	OpUDivRR: {"div", kRR, writesDst}, OpUModRR: {"mod", kRR, writesDst},
	OpMulHiRI: {"mulh", kRI, writesDst},
}

// valid reports whether o is a defined opcode.
func (o Op) valid() bool { return o > OpInvalid && o < numOps }

func (o Op) String() string {
	if o.valid() {
		return opTable[o].name
	}
	return fmt.Sprintf("op?%d", uint8(o))
}

// EndsBlock reports whether o ends a basic block: it sets the next PC
// non-sequentially (jmp, jcc, indirect jmp, call, icall, ret), halts the
// thread (exit) or always faults (trap, syscall).
func (o Op) EndsBlock() bool { return o.valid() && opTable[o].flags&endsBlock != 0 }

// MemOffset returns the byte offset of the memory operand in o's
// encoding (the operand's flags byte comes first), or -1 when o's
// operand form has none: 2 when a register byte precedes it (load, lea,
// fload), 1 when it directly follows the opcode (store, fstore, cmp's
// memory form, the memory-form bound checks).
func (o Op) MemOffset() int {
	if !o.valid() {
		return -1
	}
	switch opTable[o].form {
	case kRM, kFM:
		return 2
	case kMR, kMF, kMB:
		return 1
	}
	return -1
}

// formSuffix names each operand form for Name.
var formSuffix = [...]string{
	kR: "r", kRsrc: "r", kRR: "rr", kRI: "ri", kRM: "rm", kMR: "mr",
	kI: "i", kCI: "i", kCR: "r", kMB: "m", kRB: "r", kFM: "fm", kMF: "mf",
	kFF: "ff", kFI: "fi", kFR: "fr", kRF: "rf",
}

// opUniqueNames holds Name's result for every opcode.
var opUniqueNames = func() (names [numOps]string) {
	shared := map[string]int{}
	for op := OpInvalid + 1; op < numOps; op++ {
		shared[op.String()]++
	}
	for op := OpInvalid + 1; op < numOps; op++ {
		names[op] = op.String()
		if shared[names[op]] > 1 {
			names[op] += "." + formSuffix[opTable[op].form]
		}
	}
	return names
}()

// Name returns a name that no other opcode has: the mnemonic, followed
// by the operand form when opcodes share a mnemonic ("mov.rr", "mov.ri",
// "shl.ri"). Dynamic opcode histograms are keyed by it.
func (o Op) Name() string {
	if o.valid() {
		return opUniqueNames[o]
	}
	return o.String()
}

// Inst is a single decoded (or not-yet-encoded) instruction. Fields are
// interpreted per opcode; unused fields are zero.
type Inst struct {
	Op   Op
	Dst  Reg
	Src  Reg
	FDst FReg
	FSrc FReg
	M    Mem
	Imm  int64
	Cond Cond
	Bnd  Bnd
}

// WrittenGPR returns the general-purpose register the instruction
// explicitly overwrites (its Dst), or NoReg. The implicit rsp updates of
// push, pop, call, icall and ret are not reported.
func (i Inst) WrittenGPR() Reg {
	if i.Op.valid() && opTable[i.Op].flags&writesDst != 0 {
		return i.Dst
	}
	return NoReg
}

func (i Inst) String() string {
	op := i.Op
	if !op.valid() {
		return fmt.Sprintf("%s ?", op)
	}
	switch opTable[op].form {
	case kR:
		return fmt.Sprintf("%s %s", op, i.Dst)
	case kRsrc:
		return fmt.Sprintf("%s %s", op, i.Src)
	case kRR:
		return fmt.Sprintf("%s %s, %s", op, i.Dst, i.Src)
	case kRI:
		return fmt.Sprintf("%s %s, %d", op, i.Dst, i.Imm)
	case kRM:
		return fmt.Sprintf("%s %s, %s", op, i.Dst, i.M)
	case kMR:
		return fmt.Sprintf("%s %s, %s", op, i.M, i.Src)
	case kI:
		return fmt.Sprintf("%s 0x%x", op, uint64(i.Imm))
	case kCI:
		return fmt.Sprintf("%s%s 0x%x", op, i.Cond, uint64(i.Imm))
	case kCR:
		return fmt.Sprintf("%s%s %s", op, i.Cond, i.Dst)
	case kMB:
		return fmt.Sprintf("%s %s, %s", op, i.M, i.Bnd)
	case kRB:
		return fmt.Sprintf("%s %s, %s", op, i.Src, i.Bnd)
	case kFM:
		return fmt.Sprintf("%s %s, %s", op, i.FDst, i.M)
	case kMF:
		return fmt.Sprintf("%s %s, %s", op, i.M, i.FSrc)
	case kFF:
		return fmt.Sprintf("%s %s, %s", op, i.FDst, i.FSrc)
	case kFI:
		return fmt.Sprintf("%s %s, #%x", op, i.FDst, uint64(i.Imm))
	case kFR:
		return fmt.Sprintf("%s %s, %s", op, i.FDst, i.Src)
	case kRF:
		return fmt.Sprintf("%s %s, %s", op, i.Dst, i.FSrc)
	}
	return op.String() // kNone: the mnemonic alone
}

// Calling convention (Windows x64, as used by the paper).
var (
	// ArgRegs are the four integer argument registers, in order.
	ArgRegs = [4]Reg{RCX, RDX, R8, R9}
	// RetReg is the integer return-value register.
	RetReg = RAX
	// CalleeSaved lists registers a callee must preserve. ConfLLVM forces
	// their taint to public (callers save/clear private ones).
	CalleeSaved = []Reg{RBX, RBP, RSI, RDI, R12, R13, R14, R15}
	// CallerSaved lists registers a caller must assume clobbered.
	CallerSaved = []Reg{RAX, RCX, RDX, R8, R9, R10, R11}
)

// IsCalleeSaved reports whether r must be preserved across calls.
func IsCalleeSaved(r Reg) bool {
	for _, c := range CalleeSaved {
		if c == r {
			return true
		}
	}
	return false
}

// ArgIndex returns the argument-slot index of r, or -1 if r is not an
// argument register.
func ArgIndex(r Reg) int {
	for i, a := range ArgRegs {
		if a == r {
			return i
		}
	}
	return -1
}
