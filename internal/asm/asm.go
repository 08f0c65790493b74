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

// Negate returns the complementary condition.
func (c Cond) Negate() Cond {
	switch c {
	case CondE:
		return CondNE
	case CondNE:
		return CondE
	case CondL:
		return CondGE
	case CondLE:
		return CondG
	case CondG:
		return CondLE
	case CondGE:
		return CondL
	case CondB:
		return CondAE
	case CondBE:
		return CondA
	case CondA:
		return CondBE
	case CondAE:
		return CondB
	case CondS:
		return CondNS
	case CondNS:
		return CondS
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

	numOps
)

var opNames = map[Op]string{
	OpMovRR: "mov", OpMovRI: "mov", OpLoad: "load", OpStore: "store",
	OpLea: "lea", OpPush: "push", OpPop: "pop",
	OpAddRR: "add", OpAddRI: "add", OpSubRR: "sub", OpSubRI: "sub",
	OpMulRR: "imul", OpMulRI: "imul", OpDivRR: "idiv", OpModRR: "imod",
	OpUDivRR: "div", OpUModRR: "mod", OpMovsx: "movsx",
	OpAndRR: "and", OpAndRI: "and", OpOrRR: "or", OpOrRI: "or",
	OpXorRR: "xor", OpXorRI: "xor",
	OpShlRR: "shl", OpShlRI: "shl", OpShrRR: "shr", OpShrRI: "shr",
	OpSarRR: "sar", OpSarRI: "sar", OpNeg: "neg", OpNot: "not",
	OpCmpRR: "cmp", OpCmpRI: "cmp", OpCmpMR: "cmp", OpTestRR: "test", OpTestRI: "test",
	OpSetCC: "set",
	OpJmp:   "jmp", OpJcc: "j", OpJmpR: "jmp", OpCall: "call", OpICall: "icall",
	OpRet: "ret", OpTrap: "trap", OpExit: "exit",
	OpBndCLMem: "bndcl", OpBndCUMem: "bndcu", OpBndCLReg: "bndcl", OpBndCUReg: "bndcu",
	OpChkSP: "chksp",
	OpFLoad: "movsd", OpFStore: "movsd", OpFMovRR: "movsd", OpFMovI: "movsd",
	OpFAdd: "addsd", OpFSub: "subsd", OpFMul: "mulsd", OpFDiv: "divsd",
	OpFMax: "maxsd", OpFCmp: "ucomisd", OpCvtIF: "cvtsi2sd", OpCvtFI: "cvtsd2si",
	OpMovQIF: "movq", OpMovQFI: "movq",
	OpWrFS: "wrfs", OpWrGS: "wrgs", OpSyscall: "syscall", OpNop: "nop",
}

func (o Op) String() string {
	if n, ok := opNames[o]; ok {
		return n
	}
	return fmt.Sprintf("op?%d", uint8(o))
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
			names[op] += "." + formSuffix[opKinds[op]]
		}
	}
	return names
}()

// Name returns a name that no other opcode has: the mnemonic, followed
// by the operand form when opcodes share a mnemonic ("mov.rr", "mov.ri",
// "shl.ri"). Dynamic opcode histograms are keyed by it.
func (o Op) Name() string {
	if o > OpInvalid && o < numOps {
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

func (i Inst) String() string {
	switch i.Op {
	case OpMovRR:
		return fmt.Sprintf("mov %s, %s", i.Dst, i.Src)
	case OpMovRI:
		return fmt.Sprintf("mov %s, %d", i.Dst, i.Imm)
	case OpLoad:
		return fmt.Sprintf("load %s, %s", i.Dst, i.M)
	case OpStore:
		return fmt.Sprintf("store %s, %s", i.M, i.Src)
	case OpLea:
		return fmt.Sprintf("lea %s, %s", i.Dst, i.M)
	case OpPush:
		return fmt.Sprintf("push %s", i.Src)
	case OpPop:
		return fmt.Sprintf("pop %s", i.Dst)
	case OpAddRR, OpSubRR, OpMulRR, OpDivRR, OpModRR, OpUDivRR, OpUModRR,
		OpAndRR, OpOrRR, OpXorRR, OpShlRR, OpShrRR, OpSarRR, OpCmpRR, OpTestRR:
		return fmt.Sprintf("%s %s, %s", i.Op, i.Dst, i.Src)
	case OpAddRI, OpSubRI, OpMulRI, OpAndRI, OpOrRI, OpXorRI,
		OpShlRI, OpShrRI, OpSarRI, OpCmpRI, OpTestRI:
		return fmt.Sprintf("%s %s, %d", i.Op, i.Dst, i.Imm)
	case OpNeg, OpNot:
		return fmt.Sprintf("%s %s", i.Op, i.Dst)
	case OpMovsx:
		return fmt.Sprintf("movsx %s, %d", i.Dst, i.Imm)
	case OpCmpMR:
		return fmt.Sprintf("cmp %s, %s", i.M, i.Src)
	case OpSetCC:
		return fmt.Sprintf("set%s %s", i.Cond, i.Dst)
	case OpJmp:
		return fmt.Sprintf("jmp 0x%x", uint64(i.Imm))
	case OpJcc:
		return fmt.Sprintf("j%s 0x%x", i.Cond, uint64(i.Imm))
	case OpJmpR:
		return fmt.Sprintf("jmp %s", i.Src)
	case OpCall:
		return fmt.Sprintf("call 0x%x", uint64(i.Imm))
	case OpICall:
		return fmt.Sprintf("icall %s", i.Src)
	case OpRet, OpTrap, OpExit, OpChkSP, OpSyscall, OpNop:
		return i.Op.String()
	case OpBndCLMem, OpBndCUMem:
		return fmt.Sprintf("%s %s, %s", i.Op, i.M, i.Bnd)
	case OpBndCLReg, OpBndCUReg:
		return fmt.Sprintf("%s %s, %s", i.Op, i.Src, i.Bnd)
	case OpFLoad:
		return fmt.Sprintf("movsd %s, %s", i.FDst, i.M)
	case OpFStore:
		return fmt.Sprintf("movsd %s, %s", i.M, i.FSrc)
	case OpFMovRR:
		return fmt.Sprintf("movsd %s, %s", i.FDst, i.FSrc)
	case OpFMovI:
		return fmt.Sprintf("movsd %s, #%x", i.FDst, uint64(i.Imm))
	case OpFAdd, OpFSub, OpFMul, OpFDiv, OpFMax, OpFCmp:
		return fmt.Sprintf("%s %s, %s", i.Op, i.FDst, i.FSrc)
	case OpCvtIF:
		return fmt.Sprintf("cvtsi2sd %s, %s", i.FDst, i.Src)
	case OpCvtFI:
		return fmt.Sprintf("cvtsd2si %s, %s", i.Dst, i.FSrc)
	case OpMovQIF:
		return fmt.Sprintf("movq %s, %s", i.FDst, i.Src)
	case OpMovQFI:
		return fmt.Sprintf("movq %s, %s", i.Dst, i.FSrc)
	case OpWrFS, OpWrGS:
		return fmt.Sprintf("%s %s", i.Op, i.Src)
	}
	return fmt.Sprintf("%s ?", i.Op)
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
