package machine

import (
	"math"
	"math/rand"
	"testing"

	"confllvm/internal/asm"
)

// buildMachine maps a small code region and a data region and returns a
// thread ready to run the given instructions.
func buildMachine(t *testing.T, insts []asm.Inst) (*Machine, *Thread) {
	t.Helper()
	m := New(DefaultConfig())
	var code []byte
	for _, in := range insts {
		code = asm.Encode(code, in)
	}
	code = asm.Encode(code, asm.Inst{Op: asm.OpExit})
	if _, err := m.Mem.Map("code", 0x1000, 0x1000, PermR|PermX); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Mem.Map("data", 0x100000, 0x10000, PermR|PermW); err != nil {
		t.Fatal(err)
	}
	if f := m.Mem.WriteBytesUnchecked(0x1000, code); f != nil {
		t.Fatal(f)
	}
	th := m.NewThread(0x1000, 0x100000+0x8000, 0x100000, 0x100000+0x10000)
	return m, th
}

func run(t *testing.T, m *Machine) *Fault {
	t.Helper()
	return m.Run()
}

func TestALUAndFlags(t *testing.T) {
	m, th := buildMachine(t, []asm.Inst{
		{Op: asm.OpMovRI, Dst: asm.RAX, Imm: 10},
		{Op: asm.OpMovRI, Dst: asm.RBX, Imm: 3},
		{Op: asm.OpSubRR, Dst: asm.RAX, Src: asm.RBX}, // 7
		{Op: asm.OpMulRI, Dst: asm.RAX, Imm: 6},       // 42
		{Op: asm.OpCmpRI, Dst: asm.RAX, Imm: 42},
		{Op: asm.OpSetCC, Cond: asm.CondE, Dst: asm.RCX},
	})
	if f := run(t, m); f != nil {
		t.Fatal(f)
	}
	if th.Regs[asm.RAX] != 42 || th.Regs[asm.RCX] != 1 {
		t.Fatalf("rax=%d rcx=%d", th.Regs[asm.RAX], th.Regs[asm.RCX])
	}
}

func TestSignedConditions(t *testing.T) {
	cases := []struct {
		a, b int64
		cond asm.Cond
		want uint64
	}{
		{-5, 3, asm.CondL, 1},
		{-5, 3, asm.CondB, 0}, // unsigned: huge > 3
		{5, 5, asm.CondLE, 1},
		{5, 5, asm.CondGE, 1},
		{7, 5, asm.CondG, 1},
		{7, 5, asm.CondA, 1},
	}
	for _, c := range cases {
		m, th := buildMachine(t, []asm.Inst{
			{Op: asm.OpMovRI, Dst: asm.RAX, Imm: c.a},
			{Op: asm.OpMovRI, Dst: asm.RBX, Imm: c.b},
			{Op: asm.OpCmpRR, Dst: asm.RAX, Src: asm.RBX},
			{Op: asm.OpSetCC, Cond: c.cond, Dst: asm.RCX},
		})
		if f := run(t, m); f != nil {
			t.Fatal(f)
		}
		if th.Regs[asm.RCX] != c.want {
			t.Errorf("%d cmp %d set%v = %d, want %d", c.a, c.b, c.cond, th.Regs[asm.RCX], c.want)
		}
	}
}

func TestLoadStoreSizes(t *testing.T) {
	m, th := buildMachine(t, []asm.Inst{
		{Op: asm.OpMovRI, Dst: asm.RBX, Imm: 0x100000},
		{Op: asm.OpMovRI, Dst: asm.RAX, Imm: -2}, // 0xFFFF...FE
		{Op: asm.OpStore, M: asm.Mem{Base: asm.RBX, Index: asm.NoReg, Size: 2}, Src: asm.RAX},
		{Op: asm.OpLoad, Dst: asm.RCX, M: asm.Mem{Base: asm.RBX, Index: asm.NoReg, Size: 2}},
		{Op: asm.OpLoad, Dst: asm.RDX, M: asm.Mem{Base: asm.RBX, Index: asm.NoReg, Size: 2, Signed: true}},
	})
	if f := run(t, m); f != nil {
		t.Fatal(f)
	}
	if th.Regs[asm.RCX] != 0xFFFE {
		t.Errorf("zero-extended load = %#x, want 0xFFFE", th.Regs[asm.RCX])
	}
	if int64(th.Regs[asm.RDX]) != -2 {
		t.Errorf("sign-extended load = %d, want -2", int64(th.Regs[asm.RDX]))
	}
}

func TestGuardPageFault(t *testing.T) {
	m, _ := buildMachine(t, []asm.Inst{
		{Op: asm.OpMovRI, Dst: asm.RBX, Imm: 0x500000}, // unmapped
		{Op: asm.OpLoad, Dst: asm.RAX, M: asm.Mem{Base: asm.RBX, Index: asm.NoReg, Size: 8}},
	})
	f := run(t, m)
	if f == nil || f.Kind != FaultUnmapped {
		t.Fatalf("want guard fault, got %v", f)
	}
}

func TestWriteToCodeFaults(t *testing.T) {
	m, _ := buildMachine(t, []asm.Inst{
		{Op: asm.OpMovRI, Dst: asm.RBX, Imm: 0x1000},
		{Op: asm.OpStore, M: asm.Mem{Base: asm.RBX, Index: asm.NoReg, Size: 8}, Src: asm.RAX},
	})
	f := run(t, m)
	if f == nil || f.Kind != FaultPerm {
		t.Fatalf("want perm fault, got %v", f)
	}
}

func TestNXFetchFaults(t *testing.T) {
	m, _ := buildMachine(t, []asm.Inst{
		{Op: asm.OpMovRI, Dst: asm.RBX, Imm: 0x100000},
		{Op: asm.OpJmpR, Src: asm.RBX}, // jump into the data region
	})
	f := run(t, m)
	if f == nil || f.Kind != FaultNX {
		t.Fatalf("want NX fault, got %v", f)
	}
}

func TestMPXBounds(t *testing.T) {
	m, th := buildMachine(t, []asm.Inst{
		{Op: asm.OpMovRI, Dst: asm.RBX, Imm: 0x100010},
		{Op: asm.OpBndCLReg, Src: asm.RBX, Bnd: asm.BND0},
		{Op: asm.OpBndCUReg, Src: asm.RBX, Bnd: asm.BND0},
	})
	th.Bnd[asm.BND0] = BndRange{Lo: 0x100000, Hi: 0x100020}
	if f := run(t, m); f != nil {
		t.Fatalf("in-bounds check faulted: %v", f)
	}

	m2, th2 := buildMachine(t, []asm.Inst{
		{Op: asm.OpMovRI, Dst: asm.RBX, Imm: 0x100030},
		{Op: asm.OpBndCUReg, Src: asm.RBX, Bnd: asm.BND0},
	})
	th2.Bnd[asm.BND0] = BndRange{Lo: 0x100000, Hi: 0x100020}
	f := run(t, m2)
	if f == nil || f.Kind != FaultBounds {
		t.Fatalf("want bounds fault, got %v", f)
	}
}

func TestSegmentAddressing(t *testing.T) {
	// gs + low32(base): write through a gs-prefixed operand and check the
	// effective address arithmetic.
	m, th := buildMachine(t, []asm.Inst{
		{Op: asm.OpMovRI, Dst: asm.RAX, Imm: 123},
		// Base register holds a full VA whose low 32 bits are 0x100040;
		// the high bits must be ignored under Use32.
		{Op: asm.OpMovRI, Dst: asm.RBX, Imm: 0x0B00000000100040},
		{Op: asm.OpStore, M: asm.Mem{Seg: asm.SegGS, Base: asm.RBX, Index: asm.NoReg,
			Size: 8, Use32: true}, Src: asm.RAX},
	})
	th.GS = 0 // segment base 0 for the test: EA = low32(rbx)
	if f := run(t, m); f != nil {
		t.Fatal(f)
	}
	v, f := m.Mem.Read(0x100040, 8)
	if f != nil || v != 123 {
		t.Fatalf("segment store missed: v=%d f=%v", v, f)
	}
}

func TestChkSP(t *testing.T) {
	m, th := buildMachine(t, []asm.Inst{
		{Op: asm.OpMovRI, Dst: asm.RSP, Imm: 0x50}, // way outside the stack
		{Op: asm.OpChkSP},
	})
	_ = th
	f := run(t, m)
	if f == nil || f.Kind != FaultStack {
		t.Fatalf("want stack fault, got %v", f)
	}
}

func TestCallRetAndTrap(t *testing.T) {
	// call +x; exit at return; callee traps.
	m, _ := buildMachine(t, []asm.Inst{
		{Op: asm.OpCall, Imm: 0x1000 + 9 + 1}, // skip following exit
		{Op: asm.OpExit},
		{Op: asm.OpTrap},
	})
	f := run(t, m)
	if f == nil || f.Kind != FaultCFI {
		t.Fatalf("want CFI trap, got %v", f)
	}
}

func TestDivideFault(t *testing.T) {
	m, _ := buildMachine(t, []asm.Inst{
		{Op: asm.OpMovRI, Dst: asm.RAX, Imm: 1},
		{Op: asm.OpMovRI, Dst: asm.RBX, Imm: 0},
		{Op: asm.OpDivRR, Dst: asm.RAX, Src: asm.RBX},
	})
	f := run(t, m)
	if f == nil || f.Kind != FaultDivide {
		t.Fatalf("want divide fault, got %v", f)
	}
}

func TestFloatOps(t *testing.T) {
	m, th := buildMachine(t, []asm.Inst{
		{Op: asm.OpMovRI, Dst: asm.RAX, Imm: 7},
		{Op: asm.OpCvtIF, FDst: 0, Src: asm.RAX},
		{Op: asm.OpFMovI, FDst: 1, Imm: int64(float64bits(0.5))},
		{Op: asm.OpFMul, FDst: 0, FSrc: 1}, // 3.5
		{Op: asm.OpCvtFI, Dst: asm.RBX, FSrc: 0},
	})
	if f := run(t, m); f != nil {
		t.Fatal(f)
	}
	if th.Regs[asm.RBX] != 3 {
		t.Fatalf("cvt(7*0.5) = %d, want 3", th.Regs[asm.RBX])
	}
}

func TestFPMaskingCredits(t *testing.T) {
	// A bound check right after FP work costs nothing; standalone it
	// costs a cycle.
	mk := func(withFP bool) uint64 {
		var insts []asm.Inst
		if withFP {
			insts = append(insts, asm.Inst{Op: asm.OpFAdd, FDst: 0, FSrc: 1})
		}
		insts = append(insts, asm.Inst{Op: asm.OpBndCLReg, Src: asm.RBX, Bnd: asm.BND0})
		m, th := buildMachine(t, insts)
		th.Bnd[asm.BND0] = BndRange{Lo: 0, Hi: ^uint64(0)}
		if f := run(t, m); f != nil {
			t.Fatal(f)
		}
		return th.Stats.BndMasked
	}
	if mk(true) != 1 {
		t.Error("check after FP op should be masked")
	}
	if mk(false) != 0 {
		t.Error("standalone check should not be masked")
	}
}

func TestWallCyclesScheduling(t *testing.T) {
	m := New(Config{Cores: 2})
	for i := 0; i < 4; i++ {
		th := m.NewThread(0, 0, 0, 0)
		th.Stats.Cycles = 100
		th.Halted = true
	}
	// 4 threads x 100 cycles on 2 cores = 200 wall cycles.
	if w := m.WallCycles(); w != 200 {
		t.Fatalf("wall = %d, want 200", w)
	}
}

func TestTrustedHandlerDispatch(t *testing.T) {
	m, th := buildMachine(t, []asm.Inst{
		{Op: asm.OpMovRI, Dst: asm.R11, Imm: 0x9000},
		{Op: asm.OpICall, Src: asm.R11},
	})
	called := false
	m.Handlers[0x9000] = func(m *Machine, t *Thread) *Fault {
		called = true
		ra, f := t.Pop()
		if f != nil {
			return f
		}
		t.PC = ra
		return nil
	}
	if f := run(t, m); f != nil {
		t.Fatal(f)
	}
	if !called {
		t.Fatal("handler never dispatched")
	}
	_ = th
}

func float64bits(f float64) uint64 { return math.Float64bits(f) }

// TestOpTableMatchesStep checks the facts internal/asm's opcode table
// states against the one semantics, Thread.Step. Over seeded random
// registers, flags and memory operands, one instance of every opcode
// changes no GPR but the one WrittenGPR reports (plus rsp for the stack
// ops), an opcode whose row says it writes Dst does change it, and an
// opcode that does not end a block leaves the PC at the next instruction
// unless it faults.
func TestOpTableMatchesStep(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	movesRSP := map[asm.Op]bool{asm.OpPush: true, asm.OpPop: true, asm.OpCall: true,
		asm.OpICall: true, asm.OpRet: true}
	sizes := []uint8{1, 2, 4, 8}
	ops := 0
	for op := asm.Op(1); asm.EncodedLen(op) > 0; op++ {
		ops++
		wrote := false
		for trial := 0; trial < 32; trial++ {
			in := asm.Inst{Op: op,
				Dst: asm.Reg(rng.Intn(asm.NumRegs)), Src: asm.Reg(rng.Intn(asm.NumRegs)),
				FDst: asm.FReg(rng.Intn(asm.NumFRegs)), FSrc: asm.FReg(rng.Intn(asm.NumFRegs)),
				// An absolute operand inside the data region, so memory ops
				// mostly succeed.
				M: asm.Mem{Base: asm.NoReg, Index: asm.NoReg, Size: sizes[rng.Intn(4)],
					Disp: int32(0x100000 + rng.Intn(0x8000)), Signed: rng.Intn(2) == 1},
				Imm: int64(rng.Uint64()), Cond: asm.Cond(rng.Intn(12)), Bnd: asm.Bnd(rng.Intn(2)),
			}
			m, th := buildMachine(t, []asm.Inst{in})
			for r := range th.Regs {
				if asm.Reg(r) != asm.RSP {
					th.Regs[r] = rng.Uint64()
				}
			}
			for f := range th.FRegs {
				th.FRegs[f] = rng.NormFloat64() * 1e6
			}
			th.ZF, th.SF, th.CF, th.OF = rng.Intn(2) == 1, rng.Intn(2) == 1, rng.Intn(2) == 1, rng.Intn(2) == 1
			if f := m.Mem.Write(0x100000+uint64(rng.Intn(0x8000)), 8, rng.Uint64()); f != nil {
				t.Fatal(f)
			}
			before, pc := th.Regs, th.PC
			f := th.Step()
			w := in.WrittenGPR()
			for r := asm.Reg(0); r < asm.NumRegs; r++ {
				if th.Regs[r] != before[r] && r != w && !(r == asm.RSP && movesRSP[op]) {
					t.Errorf("%v changed %v, which the opcode table does not report", in, r)
				}
			}
			if w != asm.NoReg && th.Regs[w] != before[w] {
				wrote = true
			}
			if !op.EndsBlock() && f == nil && th.PC != pc+uint64(asm.EncodedLen(op)) {
				t.Errorf("%v left the PC at %#x, want %#x", in, th.PC, pc+uint64(asm.EncodedLen(op)))
			}
		}
		if (asm.Inst{Op: op, Dst: asm.RAX}).WrittenGPR() != asm.NoReg && !wrote {
			t.Errorf("%v never changed the register the opcode table says it writes", op)
		}
	}
	if ops < 60 {
		t.Fatalf("walked only %d opcodes", ops)
	}
}
