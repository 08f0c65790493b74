package confllvm_test

import (
	"testing"

	"confllvm"
	"confllvm/internal/asm"
	"confllvm/internal/bench"
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
