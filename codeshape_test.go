package confllvm_test

import (
	"testing"

	"confllvm"
	"confllvm/internal/asm"
	"confllvm/internal/bench"
)

// TestNoJmpToNext: fall-through block layout never emits an unconditional
// jump to the instruction right after it, in any image of any benchmark
// program under any variant.
func TestNoJmpToNext(t *testing.T) {
	for _, wl := range bench.Workloads(false) {
		for _, v := range confllvm.AllVariants() {
			art, err := confllvm.Compile(wl.Prog(v), v)
			if err != nil {
				t.Fatalf("%s/%v: compile: %v", wl.Name, v, err)
			}
			img := art.Image
			magic := img.MagicOffsets()
			for _, fs := range img.Funcs {
				off := int(fs.Base - img.Layout.CodeBase)
				end := off + int(fs.Size)
				for off < end {
					if magic[off] {
						off += 8
						continue
					}
					inst, n, err := asm.Decode(img.Code, off)
					if err != nil {
						t.Fatalf("%s/%v: %s: decode at %#x: %v", wl.Name, v, fs.Name, off, err)
					}
					next := img.Layout.CodeBase + uint64(off+n)
					if inst.Op == asm.OpJmp && uint64(inst.Imm) == next {
						t.Errorf("%s/%v: %s: jmp to the next instruction at %#x",
							wl.Name, v, fs.Name, next-uint64(n))
					}
					off += n
				}
			}
		}
	}
}
