package verify_test

import (
	"errors"
	"sync"
	"testing"

	"confllvm"
	"confllvm/internal/asm"
	"confllvm/internal/link"
	"confllvm/internal/verify"
)

// fuzzProg is testProg plus a function whose code holds a movsx (a
// signed trunc whose high bits the shift reads) and an unsigned div and
// mod, one whose accesses fold into displaced and indexed operands
// (struct fields off one checked base, p[i-1] and p[-1], which take
// memory-form checks under MPX), and one dividing a private long by a
// constant (a mulh), so the fuzzer flips those encodings too.
const fuzzProg = testProg + `
unsigned long umix(unsigned long a, int b) {
	int s = b * 3;
	return a / (unsigned long)(s >> 1) + a % 7;
}

struct arc { int to; int cost; int next; };

long fields(struct arc *arcs, long *p, long i) {
	return arcs[i].to + arcs[i].cost + arcs[i].next + p[i-1] + p[-1];
}

private long bucket(private long h) {
	return h % 1000 + h / 17;
}
`

// fuzzImages compiles the two deployable-scheme images once per process;
// the fuzzer flips bytes in copies of their code pages.
var fuzzImages = sync.OnceValue(func() []*link.Image {
	var imgs []*link.Image
	for _, v := range []confllvm.Variant{confllvm.VariantMPX, confllvm.VariantSeg} {
		art, err := confllvm.Compile(confllvm.Program{
			Sources: []confllvm.Source{{Name: "t.c", Code: fuzzProg}},
		}, v)
		if err != nil {
			panic(err)
		}
		imgs = append(imgs, art.Image)
	}
	return imgs
})

// FuzzVerifyImage flips one code byte (position and xor mask fuzzer-
// chosen) in a valid linked image and checks the verifier's two hard
// properties on arbitrary input: it never panics, and the serial and
// parallel verdicts are identical — accept/accept or the same Error.
// Seed corpus entries live in testdata/fuzz/FuzzVerifyImage.
func FuzzVerifyImage(f *testing.F) {
	// Seeds: untouched image (delta 0), opcode-byte smashes at the start,
	// middle and end of the code page, magic-word corruptions, and a
	// high-bit flip (prefix byte territory).
	f.Add(uint32(0), byte(0), false)
	f.Add(uint32(0), byte(0xff), false)
	f.Add(uint32(9), byte(0x01), true)
	f.Add(uint32(101), byte(0x80), false)
	f.Add(uint32(4096), byte(0x20), true)
	f.Add(uint32(0xffffffff), byte(0x55), false)
	// The opcode, register and immediate bytes of the first movsx, div,
	// mod and mulh in each image, and every byte of the first load with a
	// displacement, the first with an index and (under MPX) the first
	// memory-form check.
	isOp := func(op asm.Op) func(asm.Inst) bool {
		return func(in asm.Inst) bool { return in.Op == op }
	}
	shapes := []struct {
		name string
		is   func(asm.Inst) bool
		mpx  bool // only under MPX
	}{
		{"movsx", isOp(asm.OpMovsx), false},
		{"div", isOp(asm.OpUDivRR), false},
		{"mod", isOp(asm.OpUModRR), false},
		{"mulh", isOp(asm.OpMulHiRI), false},
		{"displaced load", func(in asm.Inst) bool {
			return in.Op == asm.OpLoad && in.M.Disp != 0 && in.M.Base != asm.RSP
		}, false},
		{"indexed load", func(in asm.Inst) bool { return in.Op == asm.OpLoad && in.M.Index != asm.NoReg }, true},
		{"memory-form check", isOp(asm.OpBndCLMem), true},
	}
	for i, img := range fuzzImages() {
		for _, sh := range shapes {
			if sh.mpx && i != 0 {
				continue
			}
			off, n := firstMatch(img, sh.is)
			if off < 0 {
				f.Fatalf("fuzz image %d holds no %s", i, sh.name)
			}
			for k := range n {
				f.Add(uint32(off+k), byte(1)<<(k%8), i == 1)
			}
		}
	}

	f.Fuzz(func(t *testing.T, pos uint32, delta byte, seg bool) {
		imgs := fuzzImages()
		img := imgs[0]
		if seg {
			img = imgs[1]
		}
		code := append([]byte{}, img.Code...)
		code[int(pos)%len(code)] ^= delta
		mut := *img
		mut.Code = code

		sStats, sErr := verify.VerifyStats(&mut, verify.Options{})
		pStats, pErr := verify.VerifyStats(&mut, verify.Options{Parallel: 8})

		if (sErr == nil) != (pErr == nil) {
			t.Fatalf("serial verdict %v, parallel verdict %v", sErr, pErr)
		}
		if sErr == nil {
			if sStats != pStats {
				t.Fatalf("serial stats %+v, parallel stats %+v", sStats, pStats)
			}
			return
		}
		var sv, pv *verify.Error
		if errors.As(sErr, &sv) != errors.As(pErr, &pv) || (sv != nil && *sv != *pv) {
			t.Fatalf("serial error %v, parallel error %v", sErr, pErr)
		}
	})
}

// firstMatch returns the code offset and length of the first
// instruction in img's functions that is accepts, or -1.
func firstMatch(img *link.Image, is func(asm.Inst) bool) (int, int) {
	magic := img.MagicOffsets()
	for _, fs := range img.Funcs {
		off := int(fs.Entry - img.Layout.CodeBase)
		end := int(fs.Base-img.Layout.CodeBase) + int(fs.Size)
		for off < end {
			if magic[off] {
				off += 8
				continue
			}
			in, n, err := asm.Decode(img.Code, off)
			if err != nil {
				break
			}
			if is(in) {
				return off, n
			}
			off += n
		}
	}
	return -1, 0
}
