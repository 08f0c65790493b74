package asm

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// randInst builds a random valid instruction for the given opcode.
func randInst(op Op, rng *rand.Rand) Inst {
	reg := func() Reg { return Reg(rng.Intn(NumRegs)) }
	freg := func() FReg { return FReg(rng.Intn(NumFRegs)) }
	mem := func() Mem {
		m := Mem{
			Seg:    Seg(rng.Intn(3)),
			Scale:  []uint8{1, 2, 4, 8}[rng.Intn(4)],
			Disp:   int32(rng.Int63()),
			Size:   []uint8{1, 2, 4, 8}[rng.Intn(4)],
			Signed: rng.Intn(2) == 1,
			Use32:  rng.Intn(2) == 1,
			Base:   reg(),
			Index:  reg(),
		}
		if rng.Intn(4) == 0 {
			m.Base = NoReg
		}
		if rng.Intn(2) == 0 {
			m.Index = NoReg
		}
		return m
	}
	in := Inst{Op: op}
	switch opTable[op].form {
	case kR:
		in.Dst = reg()
	case kRsrc:
		in.Src = reg()
	case kRR:
		in.Dst, in.Src = reg(), reg()
	case kRI:
		in.Dst, in.Imm = reg(), rng.Int63()-rng.Int63()
	case kRM:
		in.Dst, in.M = reg(), mem()
	case kMR:
		in.M, in.Src = mem(), reg()
	case kI:
		in.Imm = rng.Int63() - rng.Int63()
	case kCI:
		in.Cond, in.Imm = Cond(rng.Intn(12)), rng.Int63()
	case kCR:
		in.Cond, in.Dst = Cond(rng.Intn(12)), reg()
	case kMB:
		in.M, in.Bnd = mem(), Bnd(rng.Intn(2))
	case kRB:
		in.Src, in.Bnd = reg(), Bnd(rng.Intn(2))
	case kFM:
		in.FDst, in.M = freg(), mem()
	case kMF:
		in.M, in.FSrc = mem(), freg()
	case kFF:
		in.FDst, in.FSrc = freg(), freg()
	case kFI:
		in.FDst, in.Imm = freg(), rng.Int63()
	case kFR:
		in.FDst, in.Src = freg(), reg()
	case kRF:
		in.Dst, in.FSrc = reg(), freg()
	}
	return in
}

// TestEncodeDecodeRoundtrip: decode(encode(i)) == i for every opcode.
func TestEncodeDecodeRoundtrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for op := OpInvalid + 1; op < numOps; op++ {
			in := randInst(op, rng)
			buf := Encode(nil, in)
			if len(buf) != EncodedLen(op) {
				t.Logf("op %v: length %d != EncodedLen %d", op, len(buf), EncodedLen(op))
				return false
			}
			got, n, err := Decode(buf, 0)
			if err != nil {
				t.Logf("op %v: decode error: %v", op, err)
				return false
			}
			if n != len(buf) || got != in {
				t.Logf("op %v: roundtrip mismatch:\n  in  %+v\n  got %+v", op, in, got)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestSignExtendAndUnsignedDivideForms pins the forms the round trip
// above covers for the sign-extension and unsigned divide opcodes:
// movsx is in place with its width in Imm, div and mod are
// register-register, and each prints as its mnemonic.
func TestSignExtendAndUnsignedDivideForms(t *testing.T) {
	for in, want := range map[Inst]string{
		{Op: OpMovsx, Dst: RAX, Imm: 4}:    "movsx rax, 4",
		{Op: OpMovsx, Dst: R15, Imm: 1}:    "movsx r15, 1",
		{Op: OpUDivRR, Dst: RCX, Src: RBX}: "div rcx, rbx",
		{Op: OpUModRR, Dst: R8, Src: R9}:   "mod r8, r9",
		{Op: OpDivRR, Dst: RCX, Src: RBX}:  "idiv rcx, rbx",
	} {
		if got := in.String(); got != want {
			t.Errorf("%+v prints %q, want %q", in, got, want)
		}
	}
	for op, want := range map[Op]int{OpMovsx: 10, OpUDivRR: 3, OpUModRR: 3} {
		if got := EncodedLen(op); got != want {
			t.Errorf("%v encodes in %d bytes, want %d", op, got, want)
		}
	}
}

// TestOpNamesUnique: Name tells every opcode apart, so a dynamic opcode
// histogram keyed by it never merges two opcodes.
func TestOpNamesUnique(t *testing.T) {
	seen := map[string]Op{}
	for op := OpInvalid + 1; op < numOps; op++ {
		n := op.Name()
		if prev, dup := seen[n]; dup {
			t.Errorf("opcodes %d and %d are both named %q", prev, op, n)
		}
		seen[n] = op
	}
	for op, want := range map[Op]string{
		OpMovRR: "mov.rr", OpMovRI: "mov.ri", OpShlRI: "shl.ri", OpShlRR: "shl.rr",
		OpSarRI: "sar.ri", OpMovsx: "movsx", OpUDivRR: "div", OpLoad: "load",
	} {
		if got := op.Name(); got != want {
			t.Errorf("%v.Name() = %q, want %q", op, got, want)
		}
	}
}

// TestOpTable: every opcode between OpInvalid and numOps has a table row,
// so none silently encodes with no operands, and the flags sit only where
// they can mean something: writesDst on forms with a Dst register, and
// endsBlock on exactly the control-flow, halting and always-faulting ops.
func TestOpTable(t *testing.T) {
	hasDst := map[opKind]bool{kR: true, kRR: true, kRI: true, kRM: true, kCR: true, kRF: true}
	ends := map[Op]bool{OpJmp: true, OpJcc: true, OpJmpR: true, OpCall: true, OpICall: true,
		OpRet: true, OpTrap: true, OpExit: true, OpSyscall: true}
	for op := OpInvalid + 1; op < numOps; op++ {
		row := opTable[op]
		if row.name == "" {
			t.Errorf("opcode %d has no table row", op)
		}
		if row.flags&writesDst != 0 && !hasDst[row.form] {
			t.Errorf("%v writes Dst but its form has no Dst operand", op)
		}
		if op.EndsBlock() != ends[op] {
			t.Errorf("%v.EndsBlock() = %v", op, op.EndsBlock())
		}
	}
	for _, op := range []Op{OpInvalid, numOps} {
		if op.EndsBlock() || EncodedLen(op) != 0 || (Inst{Op: op, Dst: RAX}).WrittenGPR() != NoReg {
			t.Errorf("undefined opcode %d has table facts", op)
		}
	}
	for _, op := range []Op{OpCmpRR, OpCmpRI, OpTestRR, OpTestRI} {
		if w := (Inst{Op: op, Dst: RAX}).WrittenGPR(); w != NoReg {
			t.Errorf("%v reports a write of %v", op, w)
		}
	}
}

// TestInstStringPinned pins the listing form of one instance of every
// opcode: Disassemble output, and every golden listing built from it,
// depends on these strings.
func TestInstStringPinned(t *testing.T) {
	want := map[Op]string{
		OpMovRR:    "mov rcx, r9",
		OpMovRI:    "mov rcx, 42",
		OpLoad:     "load rcx, gs:[lo32(rbx)+lo32(rsi)*4-8].s32",
		OpStore:    "store gs:[lo32(rbx)+lo32(rsi)*4-8].s32, r9",
		OpLea:      "lea rcx, gs:[lo32(rbx)+lo32(rsi)*4-8].s32",
		OpPush:     "push r9",
		OpPop:      "pop rcx",
		OpAddRR:    "add rcx, r9",
		OpAddRI:    "add rcx, 42",
		OpSubRR:    "sub rcx, r9",
		OpSubRI:    "sub rcx, 42",
		OpMulRR:    "imul rcx, r9",
		OpMulRI:    "imul rcx, 42",
		OpDivRR:    "idiv rcx, r9",
		OpModRR:    "imod rcx, r9",
		OpAndRR:    "and rcx, r9",
		OpAndRI:    "and rcx, 42",
		OpOrRR:     "or rcx, r9",
		OpOrRI:     "or rcx, 42",
		OpXorRR:    "xor rcx, r9",
		OpXorRI:    "xor rcx, 42",
		OpShlRR:    "shl rcx, r9",
		OpShlRI:    "shl rcx, 42",
		OpShrRR:    "shr rcx, r9",
		OpShrRI:    "shr rcx, 42",
		OpSarRR:    "sar rcx, r9",
		OpSarRI:    "sar rcx, 42",
		OpNeg:      "neg rcx",
		OpNot:      "not rcx",
		OpCmpRR:    "cmp rcx, r9",
		OpCmpRI:    "cmp rcx, 42",
		OpCmpMR:    "cmp gs:[lo32(rbx)+lo32(rsi)*4-8].s32, r9",
		OpTestRR:   "test rcx, r9",
		OpTestRI:   "test rcx, 42",
		OpSetCC:    "setle rcx",
		OpJmp:      "jmp 0x2a",
		OpJcc:      "jle 0x2a",
		OpJmpR:     "jmp r9",
		OpCall:     "call 0x2a",
		OpICall:    "icall r9",
		OpRet:      "ret",
		OpTrap:     "trap",
		OpExit:     "exit",
		OpBndCLMem: "bndcl gs:[lo32(rbx)+lo32(rsi)*4-8].s32, bnd1",
		OpBndCUMem: "bndcu gs:[lo32(rbx)+lo32(rsi)*4-8].s32, bnd1",
		OpBndCLReg: "bndcl r9, bnd1",
		OpBndCUReg: "bndcu r9, bnd1",
		OpChkSP:    "chksp",
		OpFLoad:    "movsd xmm3, gs:[lo32(rbx)+lo32(rsi)*4-8].s32",
		OpFStore:   "movsd gs:[lo32(rbx)+lo32(rsi)*4-8].s32, xmm7",
		OpFMovRR:   "movsd xmm3, xmm7",
		OpFMovI:    "movsd xmm3, #2a",
		OpFAdd:     "addsd xmm3, xmm7",
		OpFSub:     "subsd xmm3, xmm7",
		OpFMul:     "mulsd xmm3, xmm7",
		OpFDiv:     "divsd xmm3, xmm7",
		OpFMax:     "maxsd xmm3, xmm7",
		OpFCmp:     "ucomisd xmm3, xmm7",
		OpCvtIF:    "cvtsi2sd xmm3, r9",
		OpCvtFI:    "cvtsd2si rcx, xmm7",
		OpMovQIF:   "movq xmm3, r9",
		OpMovQFI:   "movq rcx, xmm7",
		OpWrFS:     "wrfs r9",
		OpWrGS:     "wrgs r9",
		OpSyscall:  "syscall",
		OpNop:      "nop",
		OpMovsx:    "movsx rcx, 42",
		OpUDivRR:   "div rcx, r9",
		OpUModRR:   "mod rcx, r9",
	}
	m := Mem{Seg: SegGS, Base: RBX, Index: RSI, Scale: 4, Disp: -8, Size: 4, Signed: true, Use32: true}
	for op := OpInvalid + 1; op < numOps; op++ {
		in := Inst{Op: op, Dst: RCX, Src: R9, FDst: 3, FSrc: 7, M: m, Imm: 42, Cond: CondLE, Bnd: BND1}
		// A round trip through the encoding zeroes the fields op's form
		// does not use.
		in, _, err := Decode(Encode(nil, in), 0)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		w, ok := want[op]
		if !ok {
			t.Errorf("opcode %d (%v) has no pinned listing", op, op)
		} else if got := in.String(); got != w {
			t.Errorf("%v prints %q, want %q", op, got, w)
		}
	}
	if got := (Inst{Op: numOps}).String(); got != fmt.Sprintf("op?%d ?", numOps) {
		t.Errorf("undefined opcode prints %q", got)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode([]byte{0xFF}, 0); err == nil {
		t.Error("invalid opcode must fail")
	}
	if _, _, err := Decode([]byte{byte(OpMovRI), 1}, 0); err == nil {
		t.Error("truncated instruction must fail")
	}
	if _, _, err := Decode(nil, 0); err == nil {
		t.Error("empty stream must fail")
	}
	if _, _, err := Decode([]byte{byte(OpNop)}, 5); err == nil {
		t.Error("out-of-range offset must fail")
	}
}

func TestCondNegate(t *testing.T) {
	for c := CondE; c <= CondNS; c++ {
		if c.Negate().Negate() != c {
			t.Errorf("double negation of %v is %v", c, c.Negate().Negate())
		}
		if c.Negate() == c {
			t.Errorf("%v negates to itself", c)
		}
	}
}

func TestMagicWordAppend(t *testing.T) {
	buf := AppendMagic(nil, 0xDEADBEEF12345678)
	w, ok := ReadWord(buf, 0)
	if !ok || w != 0xDEADBEEF12345678 {
		t.Fatalf("magic roundtrip failed: %x", w)
	}
	if _, ok := ReadWord(buf, 1); ok {
		t.Error("short read must fail")
	}
}

func TestCallingConvention(t *testing.T) {
	if ArgIndex(RCX) != 0 || ArgIndex(RDX) != 1 || ArgIndex(R8) != 2 || ArgIndex(R9) != 3 {
		t.Error("argument register order broken")
	}
	if ArgIndex(RAX) != -1 {
		t.Error("rax is not an argument register")
	}
	if !IsCalleeSaved(RBX) || IsCalleeSaved(RAX) || IsCalleeSaved(R10) {
		t.Error("callee-saved classification broken")
	}
}
