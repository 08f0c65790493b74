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
// mod, so the fuzzer flips those encodings too.
const fuzzProg = testProg + `
unsigned long umix(unsigned long a, int b) {
	int s = b * 3;
	return a / (unsigned long)(s >> 1) + a % 7;
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
	// The opcode, register and immediate bytes of the first movsx, div
	// and mod in each image.
	for i, img := range fuzzImages() {
		for _, op := range []asm.Op{asm.OpMovsx, asm.OpUDivRR, asm.OpUModRR} {
			off := firstOp(img, op)
			if off < 0 {
				f.Fatalf("fuzz image %d holds no %v", i, op)
			}
			for k := range asm.EncodedLen(op) {
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

// firstOp returns the code offset of the first op instruction in img's
// functions, or -1.
func firstOp(img *link.Image, op asm.Op) int {
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
			if in.Op == op {
				return off
			}
			off += n
		}
	}
	return -1
}
