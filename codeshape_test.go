package confllvm_test

import (
	"slices"
	"testing"

	"confllvm"
	"confllvm/internal/asm"
	"confllvm/internal/bench"
	"confllvm/internal/link"
)

// TestNoJmpToNext: in any image of any benchmark program under any
// variant, fall-through block layout never emits an unconditional jump
// to the instruction right after it, and loop rotation leaves no backward
// jump onto a loop test (a compare right before a conditional jump; a
// block whose only branch is that jump ends with a copy of it instead).
// It also pins what lets an add become a flag-less lea: every
// conditional jump directly follows the compare or test that sets its
// flags.
func TestNoJmpToNext(t *testing.T) {
	isCmp := func(op asm.Op) bool { return op == asm.OpCmpRR || op == asm.OpCmpRI || op == asm.OpFCmp }
	setsFlags := func(op asm.Op) bool {
		return isCmp(op) || op == asm.OpCmpMR || op == asm.OpTestRR || op == asm.OpTestRI
	}
	for _, wl := range bench.Workloads(false) {
		for _, v := range confllvm.AllVariants() {
			art, err := confllvm.Compile(wl.Prog(v), v)
			if err != nil {
				t.Fatalf("%s/%v: compile: %v", wl.Name, v, err)
			}
			img := art.Image
			magic := img.MagicOffsets()
			base := img.Layout.CodeBase
			decode := func(off int) (asm.Inst, int) {
				inst, n, err := asm.Decode(img.Code, off)
				if err != nil {
					t.Fatalf("%s/%v: decode at %#x: %v", wl.Name, v, off, err)
				}
				return inst, n
			}
			for _, fs := range img.Funcs {
				off := int(fs.Base - base)
				end := off + int(fs.Size)
				prev := asm.OpNop
				for off < end {
					if magic[off] {
						off += 8
						prev = asm.OpNop
						continue
					}
					inst, n := decode(off)
					pc := base + uint64(off)
					switch {
					case inst.Op == asm.OpJmp && uint64(inst.Imm) == pc+uint64(n):
						t.Errorf("%s/%v: %s: jmp to the next instruction at %#x", wl.Name, v, fs.Name, pc)
					case inst.Op == asm.OpJmp && uint64(inst.Imm) <= pc:
						tgt, tn := decode(int(uint64(inst.Imm) - base))
						if follow, _ := decode(int(uint64(inst.Imm)-base) + tn); isCmp(tgt.Op) && follow.Op == asm.OpJcc {
							t.Errorf("%s/%v: %s: unrotated loop: jmp at %#x back to a %v; jcc",
								wl.Name, v, fs.Name, pc, tgt.Op)
						}
					case inst.Op == asm.OpJcc && !setsFlags(prev):
						t.Errorf("%s/%v: %s: jcc at %#x follows %v, not a compare", wl.Name, v, fs.Name, pc, prev)
					}
					prev = inst.Op
					off += n
				}
			}
		}
	}
}

// funcInsts decodes the instructions of one function of img, skipping
// magic words.
func funcInsts(t *testing.T, img *link.Image, name string) []asm.Inst {
	t.Helper()
	insts, _ := funcInstAddrs(t, img, name)
	return insts
}

// funcInstAddrs is funcInsts with each instruction's address.
func funcInstAddrs(t *testing.T, img *link.Image, name string) ([]asm.Inst, []uint64) {
	t.Helper()
	fs := img.Func(name)
	if fs == nil {
		t.Fatalf("no function %s", name)
	}
	magic := img.MagicOffsets()
	var out []asm.Inst
	var addrs []uint64
	off := int(fs.Base - img.Layout.CodeBase)
	for end := off + int(fs.Size); off < end; {
		if magic[off] {
			off += 8
			continue
		}
		inst, n, err := asm.Decode(img.Code, off)
		if err != nil {
			t.Fatalf("%s: decode at %#x: %v", name, off, err)
		}
		out = append(out, inst)
		addrs = append(addrs, img.Layout.CodeBase+uint64(off))
		off += n
	}
	return out, addrs
}

// TestAddressFolding pins the memory operands the prepass folds address
// arithmetic into. Under Base, a[i] on a long* is one load from
// [a + i*8] with no multiply, move or add. Under OurMPX, mcf's
// arcs[a].to, .cost and .next in one block share the one register-form
// check pair on &arcs[a] (a 12-byte stride is no scale, so that address
// stays computed), each field at its own displacement; and an indexed
// access takes a memory-form check pair on its exact operand.
func TestAddressFolding(t *testing.T) {
	src := `
struct arc { int to; int cost; int next; };
long get(long *a, long i) { return a[i]; }
long fields(struct arc *arcs, int a) { return arcs[a].to + arcs[a].cost + arcs[a].next; }
int main() { long x[2]; x[1] = 5; return (int)get(x, 1); }
`
	compile := func(v confllvm.Variant) *link.Image {
		art, err := confllvm.Compile(confllvm.Program{Sources: []confllvm.Source{{Name: "f.c", Code: src}}}, v)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		return art.Image
	}

	// Base: one load straight from the argument registers into the
	// return register.
	get := funcInsts(t, compile(confllvm.VariantBase), "get")
	if len(get) != 2 || get[0].Op != asm.OpLoad || get[1].Op != asm.OpRet {
		t.Fatalf("Base get = %v, want load; ret", get)
	}
	if in := get[0]; in.Dst != asm.RAX || in.M.Base != asm.RCX || in.M.Index != asm.RDX || in.M.Scale != 8 || in.M.Disp != 0 {
		t.Errorf("Base get = %v, want load rax, [rcx+rdx*8]", in)
	}

	img := compile(confllvm.VariantMPX)
	fields := funcInsts(t, img, "fields")
	var pairs, loads int
	var checked asm.Reg = asm.NoReg
	disps := map[int32]bool{}
	for _, in := range fields {
		switch in.Op {
		case asm.OpBndCLReg:
			pairs++
			checked = in.Src
		case asm.OpBndCLMem:
			t.Errorf("OurMPX fields: memory-form check %v", in)
		case asm.OpLoad:
			loads++
			if in.M.Base != checked || in.M.Index != asm.NoReg {
				t.Errorf("OurMPX fields: load from %v, want [%v+disp]", in.M, checked)
			}
			disps[in.M.Disp] = true
		}
	}
	if pairs != 1 || loads != 3 || !disps[0] || !disps[4] || !disps[8] {
		t.Errorf("OurMPX fields: %d check pairs for %d loads at %v, want 1 for [r], [r+4], [r+8]", pairs, loads, disps)
	}
	get = funcInsts(t, img, "get")
	if len(get) < 4 || get[0].Op != asm.OpChkSP || get[1].Op != asm.OpBndCLMem || get[2].Op != asm.OpBndCUMem ||
		get[3].Op != asm.OpLoad || get[1].M != get[2].M || get[1].M.Index == asm.NoReg ||
		get[1].M.Scale != 8 || get[1].M.Base != get[3].M.Base || get[1].M.Index != get[3].M.Index {
		t.Errorf("OurMPX get = %v, want chksp, then bndcl/bndcu [a+i*8]; load [a+i*8]", get)
	}
}

// kernelImage compiles SPEC-like kernel name under v.
func kernelImage(t *testing.T, name string, v confllvm.Variant) *link.Image {
	t.Helper()
	for _, k := range bench.SPECKernels() {
		if k.Name == name {
			art, err := confllvm.Compile(bench.SPECWorkload(k, k.ShortParams).Prog(v), v)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, v, err)
			}
			return art.Image
		}
	}
	t.Fatalf("no kernel %s", name)
	return nil
}

// TestAccumulatorInPlace pins copy coalescing on h264's dct8: in its
// innermost loop, acc += in[k*8+j] * c is one add into acc's register and
// the trunc back to int, with no reg-reg mov in or out of that register.
func TestAccumulatorInPlace(t *testing.T) {
	insts, addrs := funcInstAddrs(t, kernelImage(t, "h264", confllvm.VariantBase), "dct8")
	// accIn returns the register X of an add X, _; movsx X, 4 pair in
	// code (acc's update and its trunc to int) that nothing in code writes
	// before it, so X carries acc from one iteration to the next; or NoReg.
	accIn := func(code []asm.Inst) asm.Reg {
		for i := 1; i < len(code); i++ {
			x := code[i].Dst
			if code[i].Op != asm.OpMovsx || code[i-1].Op != asm.OpAddRR || code[i-1].Dst != x {
				continue
			}
			carried := true
			for _, in := range code[:i-1] {
				if in.WrittenGPR() == x {
					carried = false
				}
			}
			if carried {
				return x
			}
		}
		return asm.NoReg
	}
	// The inner loop is the shortest range from the target of a backward
	// jcc to the jcc that holds acc's update.
	var loop []asm.Inst
	for i, in := range insts {
		if in.Op != asm.OpJcc || uint64(in.Imm) > addrs[i] {
			continue
		}
		for j := range insts {
			if addrs[j] == uint64(in.Imm) && accIn(insts[j:i+1]) != asm.NoReg && (loop == nil || i+1-j < len(loop)) {
				loop = insts[j : i+1]
			}
		}
	}
	if loop == nil {
		t.Fatalf("dct8 has no loop with an add; movsx pair: %v", insts)
	}
	acc := accIn(loop)
	for _, in := range loop {
		if in.Op == asm.OpMovRR && (in.Dst == acc || in.Src == acc) {
			t.Errorf("dct8's inner loop moves the accumulator %v: %v in %v", acc, in, loop)
		}
	}
}

// TestCallResultInRegister pins the call result's register on mcf's
// OurMPX main: after each call to u_rand, the result is used from rax or
// moved to another register, never stored to a spill slot.
func TestCallResultInRegister(t *testing.T) {
	img := kernelImage(t, "mcf", confllvm.VariantMPX)
	target := int64(img.Func("u_rand").Entry)
	insts := funcInsts(t, img, "main")
	calls := 0
	for i, in := range insts {
		if in.Op != asm.OpCall || in.Imm != target {
			continue
		}
		calls++
		if i+1 < len(insts) && insts[i+1].Op == asm.OpStore && insts[i+1].M.Base == asm.RSP && insts[i+1].Src == asm.RAX {
			t.Errorf("mcf main spills u_rand's result: %v", insts[i+1])
		}
	}
	if calls == 0 {
		t.Fatal("mcf main calls u_rand nowhere")
	}
}

// TestPowerOfTwoMultiplyIsShift: a multiply by a power of two greater
// than 1 lowers to a shift, so libquantum's Base image, whose hot loop
// scales an index by 8 for two loads, has no imul by a power of two.
func TestPowerOfTwoMultiplyIsShift(t *testing.T) {
	img := kernelImage(t, "libquantum", confllvm.VariantBase)
	shifts := 0
	for _, fs := range img.Funcs {
		for _, in := range funcInsts(t, img, fs.Name) {
			switch {
			case in.Op == asm.OpMulRI && in.Imm > 1 && in.Imm&(in.Imm-1) == 0:
				t.Errorf("%s: %v", fs.Name, in)
			case in.Op == asm.OpShlRI:
				shifts++
			}
		}
	}
	if shifts == 0 {
		t.Error("libquantum has no shift by an immediate")
	}
}

// innermostLoops returns the bodies of fn's innermost loops in img: each
// range from the target of a backward jmp or jcc to that jump, holding no
// shorter such range.
func innermostLoops(t *testing.T, img *link.Image, fn string) [][]asm.Inst {
	t.Helper()
	insts, addrs := funcInstAddrs(t, img, fn)
	type span struct{ from, to int }
	var spans []span
	for i, in := range insts {
		if (in.Op != asm.OpJcc && in.Op != asm.OpJmp) || uint64(in.Imm) > addrs[i] {
			continue
		}
		for j := range insts[:i+1] {
			if addrs[j] == uint64(in.Imm) {
				spans = append(spans, span{j, i})
			}
		}
	}
	var loops [][]asm.Inst
	for _, s := range spans {
		inner := true
		for _, o := range spans {
			if o != s && o.from >= s.from && o.to <= s.to {
				inner = false
			}
		}
		if inner {
			loops = append(loops, insts[s.from:s.to+1])
		}
	}
	return loops
}

// TestLoopInvariantsHoisted pins the loop passes on Base images: dct8's
// innermost loop steps i*k and k*8 + j, so its one register multiply is
// in[...] * c; milc's stencil loops (the innermost loops that load
// doubles and call nothing) compute neither r*dim nor dim - 1; and bzip2's move-to-front
// loops take &mtf from a register instead of a lea from rsp.
func TestLoopInvariantsHoisted(t *testing.T) {
	dct8 := innermostLoops(t, kernelImage(t, "h264", confllvm.VariantBase), "dct8")
	if len(dct8) == 0 {
		t.Fatal("dct8 has no loop")
	}
	for _, loop := range dct8 {
		muls := 0
		for _, in := range loop {
			if in.Op == asm.OpMulRR {
				muls++
			}
		}
		if muls > 1 {
			t.Errorf("dct8's inner loop multiplies by a register %d times, want only in[...] * c: %v", muls, loop)
		}
	}
	stencils := 0
	for _, loop := range innermostLoops(t, kernelImage(t, "milc", confllvm.VariantBase), "main") {
		if !slices.ContainsFunc(loop, func(in asm.Inst) bool { return in.Op == asm.OpFLoad }) ||
			slices.ContainsFunc(loop, func(in asm.Inst) bool { return in.Op == asm.OpCall }) {
			continue
		}
		stencils++
		for _, in := range loop {
			if in.Op == asm.OpMulRR || in.Op == asm.OpMulRI || in.Op == asm.OpLea {
				t.Errorf("milc's stencil loop holds %v: %v", in, loop)
			}
		}
	}
	if stencils < 2 {
		t.Errorf("milc has %d stencil loops, want 2", stencils)
	}
	mtf := 0
	for _, loop := range innermostLoops(t, kernelImage(t, "bzip2", confllvm.VariantBase), "main") {
		for _, in := range loop {
			if in.Op == asm.OpLea && in.M.Base == asm.RSP {
				t.Errorf("bzip2's loop recomputes a stack address: %v in %v", in, loop)
			}
			if in.Op == asm.OpLoad && in.M.Size == 1 {
				mtf++
			}
		}
	}
	if mtf == 0 {
		t.Error("bzip2 has no inner loop loading a byte")
	}
}
