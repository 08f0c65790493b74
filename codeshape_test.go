package confllvm_test

import (
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
	fs := img.Func(name)
	if fs == nil {
		t.Fatalf("no function %s", name)
	}
	magic := img.MagicOffsets()
	var out []asm.Inst
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
		off += n
	}
	return out
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

	// Base: after the moves that place the incoming arguments, one load.
	get := funcInsts(t, compile(confllvm.VariantBase), "get")
	body := get
	for len(body) > 0 && body[0].Op == asm.OpMovRR {
		body = body[1:]
	}
	if len(body) != 2 || body[0].Op != asm.OpLoad || body[1].Op != asm.OpRet {
		t.Fatalf("Base get = %v, want argument moves, then load; ret", get)
	}
	if m := body[0].M; m.Index == asm.NoReg || m.Scale != 8 || m.Disp != 0 {
		t.Errorf("Base get loads from %v, want [a+i*8]", m)
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
	body = get[1:] // after chksp
	for len(body) > 0 && body[0].Op == asm.OpMovRR {
		body = body[1:]
	}
	if len(body) < 3 || body[0].Op != asm.OpBndCLMem || body[1].Op != asm.OpBndCUMem ||
		body[2].Op != asm.OpLoad || body[0].M != body[1].M || body[0].M.Index == asm.NoReg ||
		body[0].M.Scale != 8 || body[0].M.Base != body[2].M.Base || body[0].M.Index != body[2].M.Index {
		t.Errorf("OurMPX get = %v, want chksp, argument moves, then bndcl/bndcu [a+i*8]; load [a+i*8]", get)
	}
}
