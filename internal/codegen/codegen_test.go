// Unit tests for the lowering layer: compare-and-branch fusion and
// fall-through block layout (a block only falls into a successor its
// terminator targets), and calls/branches lowering to the documented CFI
// sequences.
package codegen

import (
	"math"
	"strings"
	"testing"

	"confllvm/internal/asm"
	"confllvm/internal/ir"
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
	_, cm := genIR(t, src, conf)
	return cm
}

// genIR is genModule that also returns the IR module Gen consumed.
func genIR(t *testing.T, src string, conf Config) (*ir.Module, *Module) {
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
	return mod, cm
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

// branchFunc builds func f(long a, long b) long whose entry block ends in
// "c = icmp slt a, b; condbr c, b<thenID>, b<elseID>", with blocks b1 and
// b2 returning retVal(c, a) and b respectively.
func branchFunc(thenID, elseID int, retVal func(c, a ir.Value) ir.Value) *ir.Func {
	long := types.MakeInt(8, true, types.Public)
	f := &ir.Func{Name: "f", Params: []*types.Type{long, long}, Ret: long}
	a, b := f.NewValue(long), f.NewValue(long)
	f.ParamRegs = []ir.Value{a, b}
	c := f.NewValue(types.MakeInt(4, true, types.Public))
	b0, b1, b2 := f.NewBlock(), f.NewBlock(), f.NewBlock()
	b0.Insts = []*ir.Inst{
		{Op: ir.OpICmp, Res: c, Args: []ir.Value{a, b}, Pred: ir.PredSLT},
		{Op: ir.OpCondBr, Res: ir.NoValue, Args: []ir.Value{c}, Blk: thenID, Blk2: elseID},
	}
	b1.Insts = []*ir.Inst{{Op: ir.OpRet, Res: ir.NoValue, Args: []ir.Value{retVal(c, a)}}}
	b2.Insts = []*ir.Inst{{Op: ir.OpRet, Res: ir.NoValue, Args: []ir.Value{b}}}
	return f
}

// genFuncCode generates code for a single hand-built function.
func genFuncCode(t *testing.T, f *ir.Func, conf Config) *FuncCode {
	t.Helper()
	mod := ir.NewModule()
	mod.AddFunc(f)
	cm, err := Gen(mod, &taint.Assignment{}, conf)
	if err != nil {
		t.Fatal(err)
	}
	return fnCode(t, cm, f.Name)
}

// ops lists the non-magic instruction ops of fc.
func ops(fc *FuncCode) []asm.Op {
	var out []asm.Op
	for _, it := range fc.Items {
		if !it.Magic {
			out = append(out, it.Inst.Op)
		}
	}
	return out
}

// findBranch returns the index of the first jcc in fc.
func findBranch(t *testing.T, fc *FuncCode) int {
	t.Helper()
	for i, it := range fc.Items {
		if !it.Magic && it.Inst.Op == asm.OpJcc && it.Rel == RelBlock {
			return i
		}
	}
	t.Fatalf("no jcc with a block relocation in %v", ops(fc))
	return -1
}

// TestCondBrLowering: a compare whose only use is the condbr after it
// lowers to cmp + jcc on the compare's own condition, with a block
// relocation and no setcc/test. Fall-through layout drops the jump to the
// next block: with the false target next, jcc goes to the true target;
// with the true target next, the inverted jcc goes to the false target.
// When the boolean has another use, setcc materializes it and the branch
// tests it.
func TestCondBrLowering(t *testing.T) {
	arg := func(_, a ir.Value) ir.Value { return a }
	cases := []struct {
		name   string
		f      *ir.Func
		cond   asm.Cond
		target int
		setcc  bool // the boolean is materialized and the branch tests it
	}{
		{"false target next", branchFunc(2, 1, arg), asm.CondL, 2, false},
		{"true target next", branchFunc(1, 2, arg), asm.CondGE, 2, false},
		{"boolean used as a value", branchFunc(1, 2, func(c, _ ir.Value) ir.Value { return c }),
			asm.CondE, 2, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fc := genFuncCode(t, tc.f, Config{IgnoreTaint: true})
			i := findBranch(t, fc)
			jcc, prev := fc.Items[i], fc.Items[i-1]
			if jcc.Inst.Cond != tc.cond || jcc.Blk != tc.target {
				t.Errorf("branch is j%v b%d, want j%v b%d", jcc.Inst.Cond, jcc.Blk, tc.cond, tc.target)
			}
			if next := fc.Items[i+1]; next.Label < 0 {
				t.Errorf("jcc is followed by unlabeled %v, want the fall-through block", next.Inst.Op)
			}
			setcc := false
			for _, op := range ops(fc) {
				setcc = setcc || op == asm.OpSetCC
			}
			if setcc != tc.setcc {
				t.Errorf("setcc emitted = %v, want %v: %v", setcc, tc.setcc, ops(fc))
			}
			wantPrev := asm.OpCmpRR
			if tc.setcc {
				wantPrev = asm.OpTestRR
			}
			if prev.Inst.Op != wantPrev {
				t.Errorf("jcc preceded by %v, want %v", prev.Inst.Op, wantPrev)
			}
		})
	}
}

// TestBlocksEndInTerminators: every labeled block either follows an
// explicit terminator, or is the layout successor that its predecessor's
// IR terminator targets (directly, or through blocks that emitted no
// code) — so a fall-through never enters a block its predecessor does not
// branch to. The function's final item is always a terminator.
func TestBlocksEndInTerminators(t *testing.T) {
	for _, conf := range []Config{{}, {CFI: true, Bounds: BoundsMPX,
		SeparateStacks: true, SeparateUT: true}} {
		mod, cm := genIR(t, branchy, conf)
		for _, fc := range cm.Funcs {
			if fc.IsStub {
				continue
			}
			f := mod.Func(fc.Name)
			index := map[int]int{}
			for i, blk := range f.Blocks {
				index[blk.ID] = i
			}
			prevLabel := -1
			for i, it := range fc.Items {
				if it.Magic || it.Label < 0 || it.Label == trapLabel {
					continue
				}
				if prevLabel >= 0 {
					prev := fc.Items[i-1]
					if prev.Magic || !isTerminator(prev.Inst.Op) {
						checkFallThrough(t, fc.Name, f, index, prevLabel, it.Label)
					}
				}
				prevLabel = it.Label
			}
			last := fc.Items[len(fc.Items)-1]
			if last.Magic || !isTerminator(last.Inst.Op) {
				t.Errorf("%s: final item %v is not a terminator", fc.Name, last.Inst.Op)
			}
		}
	}
}

// checkFallThrough requires that code falling from block from into block
// to is allowed: every IR block laid out between them emitted nothing,
// and from's terminator targets to or one of those blocks.
func checkFallThrough(t *testing.T, fn string, f *ir.Func, index map[int]int, from, to int) {
	t.Helper()
	ok := map[int]bool{to: true}
	for j := index[from] + 1; j < index[to]; j++ {
		ok[f.Blocks[j].ID] = true
	}
	term := f.Blocks[index[from]].Insts
	for _, s := range f.Blocks[index[from]].Succs() {
		if ok[s] {
			return
		}
	}
	t.Errorf("%s: b%d falls through into b%d, but its terminator %v does not target it",
		fn, from, to, term[len(term)-1])
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
	if count(fc, asm.OpBndCLReg)+count(fc, asm.OpBndCUReg)+count(fc, asm.OpBndCLMem)+count(fc, asm.OpBndCUMem) != 0 {
		t.Error("Base emitted MPX checks")
	}

	mpxConf := Config{CFI: true, Bounds: BoundsMPX, SeparateStacks: true,
		SeparateUT: true}
	mpx := genModule(t, pointerTouch, mpxConf)
	fc = fnCode(t, mpx, "touch")
	lo := count(fc, asm.OpBndCLReg) + count(fc, asm.OpBndCLMem)
	hi := count(fc, asm.OpBndCUReg) + count(fc, asm.OpBndCUMem)
	if lo == 0 || lo != hi {
		t.Errorf("MPX checks: %d lower / %d upper, want equal and nonzero", lo, hi)
	}
	if count(fc, asm.OpChkSP) == 0 {
		t.Error("MPX config emitted no chksp")
	}

	// The naive ablation may only add checks, never remove them.
	naiveConf := mpxConf
	naiveConf.NoMPXOpt = true
	naive := genModule(t, pointerTouch, naiveConf)
	nfc := fnCode(t, naive, "touch")
	if n := count(nfc, asm.OpBndCLMem); n < lo {
		t.Errorf("NoMPXOpt emitted fewer checks (%d) than optimized (%d)", n, lo)
	}
	if n := count(nfc, asm.OpBndCLReg); n != 0 {
		t.Errorf("NoMPXOpt emitted %d register-form checks, want memory-form checks only", n)
	}

	segConf := Config{CFI: true, Bounds: BoundsSeg, SeparateStacks: true,
		SeparateUT: true}
	seg := genModule(t, pointerTouch, segConf)
	fc = fnCode(t, seg, "touch")
	if count(fc, asm.OpBndCLReg)+count(fc, asm.OpBndCUReg)+count(fc, asm.OpBndCLMem)+count(fc, asm.OpBndCUMem) != 0 {
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
		SeparateStacks: true, SeparateUT: true})
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

// TestLeaThreeAddress: an add or sub of an immediate into a register
// other than its source lowers to lea d, [a + disp] when the displacement
// fits in 32 bits, and to mov d, a; op d, imm otherwise. Other ops never
// become a lea.
func TestLeaThreeAddress(t *testing.T) {
	cases := []struct {
		name string
		op   ir.Op
		imm  int64
		lea  bool
		disp int32
	}{
		{"add", ir.OpAdd, 5, true, 5},
		{"sub", ir.OpSub, 5, true, -5},
		{"add max int32", ir.OpAdd, math.MaxInt32, true, math.MaxInt32},
		{"add min int32", ir.OpAdd, math.MinInt32, true, math.MinInt32},
		{"add past int32", ir.OpAdd, math.MaxInt32 + 1, false, 0},
		{"sub min int32", ir.OpSub, math.MinInt32, false, 0}, // -imm overflows int32
		{"sub min int64", ir.OpSub, math.MinInt64, false, 0},
		{"mul", ir.OpMul, 5, false, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			long := types.MakeInt(8, true, types.Public)
			f := &ir.Func{Name: "f", Params: []*types.Type{long}, Ret: long}
			a, k, d, r := f.NewValue(long), f.NewValue(long), f.NewValue(long), f.NewValue(long)
			f.ParamRegs = []ir.Value{a}
			f.NewBlock().Insts = []*ir.Inst{
				{Op: ir.OpConst, Res: k, Imm: tc.imm},
				{Op: tc.op, Res: d, Args: []ir.Value{a, k}},
				{Op: ir.OpAdd, Res: r, Args: []ir.Value{d, a}}, // a stays live past d
				{Op: ir.OpRet, Res: ir.NoValue, Args: []ir.Value{r}},
			}
			fc := genFuncCode(t, f, Config{IgnoreTaint: true})
			var lea *asm.Inst
			for i := range fc.Items {
				if in := &fc.Items[i].Inst; in.Op == asm.OpLea {
					lea = in
				}
			}
			if (lea != nil) != tc.lea {
				t.Fatalf("lea emitted = %v, want %v: %v", lea != nil, tc.lea, ops(fc))
			}
			if lea != nil && (lea.M.Disp != tc.disp || lea.M.Index != asm.NoReg || lea.M.Seg != asm.SegNone) {
				t.Errorf("lea operand %+v, want [base + %d]", lea.M, tc.disp)
			}
		})
	}
}

// TestLoopRotation: a loop whose test is a short run of plain
// instructions ends each iteration with a copy of the test and a jcc
// back to the body, so no jmp goes backward; a test with a call, or
// longer than three items, is reached by a backward jmp as before. The
// forward jmp from the if's then-branch into the loop test is never
// replaced by a copy.
func TestLoopRotation(t *testing.T) {
	cases := []struct {
		name, cond string
		rotated    bool
	}{
		{"compare", "r > 10", true},
		{"call in the test", "h() != 10", false}, // call; mov; cmp
		{"long test", "r * 3 + r * 5 > 10", false},
	}
	for _, conf := range []Config{{IgnoreTaint: true}, {CFI: true, Bounds: BoundsMPX,
		SeparateStacks: true, SeparateUT: true}} {
		for _, tc := range cases {
			src := "long n = 20;\nlong h() { n = n - 1; return n; }\nlong f(long r) {\n" +
				"\tif (r > 5) { r = r + 1; } else { r = r - 1; }\n" +
				"\twhile (" + tc.cond + ") { r = r - 3; }\n\treturn r;\n}\n" +
				"int main() { return (int)f(40); }\n"
			fc := fnCode(t, genModule(t, src, conf), "f")
			at := map[int]int{} // block id -> item index of its label
			for i, it := range fc.Items {
				if it.Label >= 0 {
					at[it.Label] = i
				}
			}
			backJmp, backJcc, tests := 0, 0, 0
			for i, it := range fc.Items {
				if it.Magic {
					continue
				}
				if it.Inst.Op == asm.OpCmpRI && it.Inst.Imm == 10 {
					tests++
				}
				// Skip forward branches, and the else branch's jmp back to
				// the if's join (laid out before the else, where it is a lone
				// forward jmp into the loop test).
				if it.Rel != RelBlock || at[it.Blk] > i || fc.Items[at[it.Blk]].Inst.Op == asm.OpJmp {
					continue
				}
				switch it.Inst.Op {
				case asm.OpJmp:
					backJmp++
				case asm.OpJcc:
					backJcc++
					if prev := fc.Items[i-1].Inst.Op; prev != asm.OpCmpRI {
						t.Errorf("%s (CFI=%v): backward jcc follows %v, not the copied cmp", tc.name, conf.CFI, prev)
					}
				}
			}
			want := [3]int{1, 0, 1} // backward jmps, backward jccs, copies of the test
			if tc.rotated {
				want = [3]int{0, 1, 2}
			}
			if got := [3]int{backJmp, backJcc, tests}; got != want {
				t.Errorf("%s (CFI=%v): backward jmps, backward jccs, loop tests = %v, want %v: %v",
					tc.name, conf.CFI, got, want, ops(fc))
			}
		}
	}
}

// TestMPXFrameWithinGuard: rsp-relative operands go unchecked under MPX
// only within MPXGuard of rsp, so a frame whose incoming arguments lie
// beyond it is refused there (it would overflow its thread stack anyway);
// Base compiles it.
func TestMPXFrameWithinGuard(t *testing.T) {
	src := `
long f(long a, long b, long c, long d, long e) { char big[2000000]; big[5] = (char)e; return big[5]; }
int main() { return (int)f(1, 2, 3, 4, 5); }
`
	genModule(t, src, Config{IgnoreTaint: true})
	gen := &minic.QualGen{}
	file, err := minic.Parse("t.c", src, map[string]*types.Type{}, gen)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := irgen.Gen([]*minic.File{file}, gen)
	if err != nil {
		t.Fatal(err)
	}
	a, err := taint.Infer(mod, gen.Count(), taint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Gen(mod, a, Config{CFI: true, Bounds: BoundsMPX, SeparateStacks: true,
		SeparateUT: true, StackOffset: 1 << 30})
	if err == nil || !strings.Contains(err.Error(), "exceeds the 1048576-byte stack guard") {
		t.Errorf("MPX codegen of a 2 MB frame: %v, want a stack-guard error", err)
	}
}
