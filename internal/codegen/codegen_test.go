// First unit tests for the lowering layer, focused on the instruction
// shapes the superblock dispatcher depends on: every basic block must end
// in an explicit terminator (jumps are never implicit fall-throughs), and
// calls/branches must lower to the documented CFI sequences.
package codegen

import (
	"testing"

	"confllvm/internal/asm"
	"confllvm/internal/irgen"
	"confllvm/internal/minic"
	"confllvm/internal/taint"
	"confllvm/internal/types"
)

// genModule compiles miniC source through parse -> irgen -> taint -> Gen
// under the given configuration (no optimization passes, so the emitted
// shapes are predictable).
func genModule(t *testing.T, src string, conf Config) *Module {
	t.Helper()
	gen := &minic.QualGen{}
	structs := map[string]*types.Type{}
	f, err := minic.Parse("t.c", src, structs, gen)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := irgen.Gen([]*minic.File{f}, gen)
	if err != nil {
		t.Fatal(err)
	}
	var a *taint.Assignment
	if conf.IgnoreTaint {
		a = &taint.Assignment{}
	} else {
		a, err = taint.Infer(mod, gen.Count(), taint.Options{})
		if err != nil {
			t.Fatal(err)
		}
	}
	if conf.StackOffset == 0 {
		conf.StackOffset = 1 << 30
	}
	cm, err := Gen(mod, a, conf)
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

func fnCode(t *testing.T, cm *Module, name string) *FuncCode {
	t.Helper()
	for _, f := range cm.Funcs {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("no function %q in module", name)
	return nil
}

// isTerminator mirrors the machine's superblock-terminator set for the
// ops codegen can emit at a block end.
func isTerminator(op asm.Op) bool {
	switch op {
	case asm.OpJmp, asm.OpJcc, asm.OpJmpR, asm.OpRet, asm.OpTrap:
		return true
	}
	return false
}

const branchy = `
long pick(long a, long b) {
	long r = 0;
	if (a < b) { r = a * 2; } else { r = b + 1; }
	while (r > 10) { r = r - 3; }
	return r;
}

int main() {
	return (int)pick(3, 9);
}
`

// TestCondBrLowering: a conditional branch lowers to test + jcc(NE) +
// jmp, both jump operands carrying block relocations — never an implicit
// fall-through.
func TestCondBrLowering(t *testing.T) {
	cm := genModule(t, branchy, Config{})
	fc := fnCode(t, cm, "pick")
	found := false
	for i := 0; i+2 < len(fc.Items); i++ {
		a, b, c := fc.Items[i], fc.Items[i+1], fc.Items[i+2]
		if a.Inst.Op == asm.OpTestRR && b.Inst.Op == asm.OpJcc && c.Inst.Op == asm.OpJmp {
			if b.Inst.Cond != asm.CondNE {
				t.Errorf("condbr jcc condition = %v, want ne", b.Inst.Cond)
			}
			if b.Rel != RelBlock || c.Rel != RelBlock {
				t.Errorf("condbr jump relocations = %v/%v, want RelBlock", b.Rel, c.Rel)
			}
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no test+jcc+jmp triple found for the conditional branch")
	}
}

// TestBlocksEndInTerminators: every labeled basic block must be closed by
// an explicit terminator before the next label — the property that lets
// the machine group block interiors without missing a dispatch point.
func TestBlocksEndInTerminators(t *testing.T) {
	for _, conf := range []Config{{}, {CFI: true, Bounds: BoundsMPX,
		SeparateStacks: true, SeparateUT: true, ChkStk: true}} {
		cm := genModule(t, branchy, conf)
		for _, fc := range cm.Funcs {
			if fc.IsStub {
				continue
			}
			firstLabel := true
			for i, it := range fc.Items {
				if it.Magic || it.Label < 0 {
					continue
				}
				if firstLabel {
					firstLabel = false // entry block follows the prologue
					continue
				}
				prev := fc.Items[i-1]
				if prev.Magic || !isTerminator(prev.Inst.Op) {
					t.Errorf("%s: block label %d at item %d is preceded by %v, not a terminator",
						fc.Name, it.Label, i, prev.Inst.Op)
				}
			}
			// The function's final item must also be a terminator (the
			// epilogue's ret/jmp or the shared trap site).
			last := fc.Items[len(fc.Items)-1]
			if last.Magic || !isTerminator(last.Inst.Op) {
				t.Errorf("%s: final item %v is not a terminator", fc.Name, last.Inst.Op)
			}
		}
	}
}

const callers = `
extern void output(long v);

long helper(long x, long y) {
	return x * y + 1;
}

int main() {
	long r = helper(6, 7);
	output(r);
	return (int)r;
}
`

// TestDirectCallLowering: a direct call lowers to OpCall with a RelFunc
// relocation on the callee symbol; under CFI the return site is followed
// by a return magic word.
func TestDirectCallLowering(t *testing.T) {
	for _, cfi := range []bool{false, true} {
		conf := Config{}
		if cfi {
			conf = Config{CFI: true, SeparateStacks: true, SeparateUT: true}
		}
		cm := genModule(t, callers, conf)
		fc := fnCode(t, cm, "main")
		found := false
		for i, it := range fc.Items {
			if it.Magic || it.Inst.Op != asm.OpCall || it.Sym != "helper" {
				continue
			}
			if it.Rel != RelFunc {
				t.Errorf("call relocation = %v, want RelFunc", it.Rel)
			}
			if cfi {
				if i+1 >= len(fc.Items) || !fc.Items[i+1].Magic || fc.Items[i+1].MagicCall {
					t.Error("CFI call site is not followed by a return magic word")
				}
			}
			found = true
		}
		if !found {
			t.Fatalf("cfi=%v: no direct call to helper emitted", cfi)
		}
	}
}

const indirect = `
long inc(long x) {
	return x + 1;
}

int main() {
	long (*fp)(long);
	fp = inc;
	return (int)fp(41);
}
`

// TestIndirectCallCFI: an indirect call under CFI lowers to the §4 check
// sequence — load the expected (negated) call magic, compare it against
// the word at the target, trap on mismatch, then icall past the magic.
func TestIndirectCallCFI(t *testing.T) {
	cm := genModule(t, indirect, Config{CFI: true, SeparateStacks: true, SeparateUT: true})
	fc := fnCode(t, cm, "main")
	want := []struct {
		op  asm.Op
		rel RelKind
	}{
		{asm.OpMovRI, RelCallMagicNot},
		{asm.OpNot, RelNone},
		{asm.OpCmpMR, RelNone},
		{asm.OpJcc, RelTrap},
		{asm.OpAddRI, RelNone},
		{asm.OpICall, RelNone},
	}
	for i := 0; i+len(want) <= len(fc.Items); i++ {
		match := true
		for j, w := range want {
			it := fc.Items[i+j]
			if it.Magic || it.Inst.Op != w.op || it.Rel != w.rel {
				match = false
				break
			}
		}
		if match {
			if add := fc.Items[i+4].Inst; add.Imm != 8 {
				t.Errorf("icall magic skip adds %d, want 8", add.Imm)
			}
			return
		}
	}
	t.Fatal("CFI indirect-call sequence not found")
}

// TestIndirectCallNoCFI: without CFI the indirect call is a bare icall.
func TestIndirectCallNoCFI(t *testing.T) {
	cm := genModule(t, indirect, Config{})
	fc := fnCode(t, cm, "main")
	for _, it := range fc.Items {
		if !it.Magic && it.Inst.Op == asm.OpCmpMR {
			t.Fatal("CFI magic check emitted without CFI")
		}
	}
}

const pointerTouch = `
long touch(long *p) {
	p[0] = p[1] + p[2];
	return p[0];
}

int main() {
	long buf[4];
	buf[1] = 20;
	buf[2] = 22;
	return (int)touch(buf);
}
`

// TestBoundsEmission: the MPX scheme emits paired lower/upper checks
// before pointer accesses; the segmentation scheme instead tags operands
// with a segment prefix and the 32-bit constraint; Base emits neither.
func TestBoundsEmission(t *testing.T) {
	count := func(fc *FuncCode, op asm.Op) int {
		n := 0
		for _, it := range fc.Items {
			if !it.Magic && it.Inst.Op == op {
				n++
			}
		}
		return n
	}

	base := genModule(t, pointerTouch, Config{IgnoreTaint: true})
	fc := fnCode(t, base, "touch")
	if count(fc, asm.OpBndCLReg)+count(fc, asm.OpBndCUReg) != 0 {
		t.Error("Base emitted MPX checks")
	}

	mpxConf := Config{CFI: true, Bounds: BoundsMPX, SeparateStacks: true,
		SeparateUT: true, ChkStk: true}
	mpx := genModule(t, pointerTouch, mpxConf)
	fc = fnCode(t, mpx, "touch")
	lo, hi := count(fc, asm.OpBndCLReg), count(fc, asm.OpBndCUReg)
	if lo == 0 || lo != hi {
		t.Errorf("MPX checks: %d lower / %d upper, want equal and nonzero", lo, hi)
	}
	if count(fc, asm.OpChkSP) == 0 {
		t.Error("ChkStk config emitted no chksp")
	}

	// The naive ablation may only add checks, never remove them.
	naiveConf := mpxConf
	naiveConf.NoMPXOpt = true
	naive := genModule(t, pointerTouch, naiveConf)
	nfc := fnCode(t, naive, "touch")
	if n := count(nfc, asm.OpBndCLReg); n < lo {
		t.Errorf("NoMPXOpt emitted fewer checks (%d) than optimized (%d)", n, lo)
	}

	segConf := Config{CFI: true, Bounds: BoundsSeg, SeparateStacks: true,
		SeparateUT: true, ChkStk: true}
	seg := genModule(t, pointerTouch, segConf)
	fc = fnCode(t, seg, "touch")
	if count(fc, asm.OpBndCLReg)+count(fc, asm.OpBndCUReg) != 0 {
		t.Error("Seg scheme emitted MPX checks")
	}
	segged := false
	for _, it := range fc.Items {
		if it.Magic {
			continue
		}
		if (it.Inst.Op == asm.OpLoad || it.Inst.Op == asm.OpStore) &&
			it.Inst.M.Seg != asm.SegNone {
			if !it.Inst.M.Use32 {
				t.Error("segment-prefixed operand without the 32-bit constraint")
			}
			segged = true
		}
	}
	if !segged {
		t.Error("Seg scheme emitted no segment-prefixed accesses")
	}
}

// TestStubShape: an extern (T) function gets a U-side stub that jumps
// through the read-only externals table, with a call magic under CFI and
// an fs-prefixed table load under the segmentation scheme.
func TestStubShape(t *testing.T) {
	cm := genModule(t, callers, Config{CFI: true, Bounds: BoundsSeg,
		SeparateStacks: true, SeparateUT: true, ChkStk: true})
	fc := fnCode(t, cm, "output")
	if !fc.IsStub {
		t.Fatal("extern output did not become a stub")
	}
	if !fc.Items[0].Magic || !fc.Items[0].MagicCall {
		t.Error("CFI stub does not start with a call magic word")
	}
	var ops []asm.Op
	var rels []RelKind
	for _, it := range fc.Items {
		if it.Magic {
			continue
		}
		ops = append(ops, it.Inst.Op)
		rels = append(rels, it.Rel)
	}
	if len(ops) != 3 || ops[0] != asm.OpMovRI || ops[1] != asm.OpLoad || ops[2] != asm.OpJmpR {
		t.Fatalf("stub ops = %v, want [mov load jmpR]", ops)
	}
	if rels[0] != RelExtSlot {
		t.Errorf("stub table relocation = %v, want RelExtSlot", rels[0])
	}
	for _, it := range fc.Items {
		if !it.Magic && it.Inst.Op == asm.OpLoad {
			if it.Inst.M.Seg != asm.SegFS || !it.Inst.M.Use32 {
				t.Error("stub table load must go through fs with the 32-bit constraint")
			}
		}
	}
}
