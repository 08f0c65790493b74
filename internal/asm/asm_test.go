package asm

import (
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
	switch opKinds[op] {
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
