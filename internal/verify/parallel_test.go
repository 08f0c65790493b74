package verify_test

import (
	"errors"
	"testing"

	"confllvm"
	"confllvm/internal/asm"
	"confllvm/internal/link"
	"confllvm/internal/verify"
)

// decodeSweep walks the code linearly, skipping magic words, and calls fn
// for every decodable instruction offset (the same sweep the fault-
// injection tests use to find mutation sites).
func decodeSweep(img *link.Image, fn func(off int, in asm.Inst, n int)) {
	magic := img.MagicOffsets()
	for off := 0; off < len(img.Code); {
		if magic[off] {
			off += 8
			continue
		}
		in, n, err := asm.Decode(img.Code, off)
		if err != nil {
			off++
			continue
		}
		fn(off, in, n)
		off += n
	}
}

// TestParallelMatchesSerial pins the tentpole's determinism contract on
// accepting runs: Stats and the verdict are identical for every worker
// count.
func TestParallelMatchesSerial(t *testing.T) {
	for _, v := range []confllvm.Variant{confllvm.VariantMPX, confllvm.VariantSeg} {
		art := compile(t, v)
		serial, err := verify.VerifyStats(art.Image, verify.Options{})
		if err != nil {
			t.Fatalf("[%v] serial: %v", v, err)
		}
		if serial.Funcs == 0 || serial.Insts == 0 || serial.Stubs == 0 {
			t.Fatalf("[%v] implausible stats: %+v", v, serial)
		}
		for _, workers := range []int{2, 4, 8, 64} {
			par, err := verify.VerifyStats(art.Image, verify.Options{Parallel: workers})
			if err != nil {
				t.Fatalf("[%v] parallel=%d: %v", v, workers, err)
			}
			if par != serial {
				t.Errorf("[%v] parallel=%d stats %+v differ from serial %+v", v, workers, par, serial)
			}
		}
	}
}

// TestParallelFirstErrorDeterminism corrupts *many* procedures at once and
// demands the parallel verifier always report exactly the error the serial
// sorted sweep hits first, under every worker count and across repeated
// runs (scheduling must never leak into the verdict).
func TestParallelFirstErrorDeterminism(t *testing.T) {
	art := compile(t, confllvm.VariantMPX)
	img := art.Image

	// Turn every pop into a plain ret: most procedures now fail, each at
	// its own offset.
	code := append([]byte{}, img.Code...)
	broken := 0
	decodeSweep(img, func(off int, in asm.Inst, n int) {
		if in.Op == asm.OpPop {
			code[off] = byte(asm.OpRet)
			broken++
		}
	})
	if broken < 2 {
		t.Fatalf("corpus too small: only %d pops to break", broken)
	}
	mut := *img
	mut.Code = code

	serr := verify.Verify(&mut, verify.Options{})
	var sverr *verify.Error
	if !errors.As(serr, &sverr) {
		t.Fatalf("serial: want a verify.Error, got %v", serr)
	}

	for _, workers := range []int{2, 4, 8, 64} {
		for rep := 0; rep < 5; rep++ {
			perr := verify.Verify(&mut, verify.Options{Parallel: workers})
			var pverr *verify.Error
			if !errors.As(perr, &pverr) || *pverr != *sverr {
				t.Fatalf("parallel=%d rep=%d: verdict %v differs from serial %v",
					workers, rep, perr, serr)
			}
		}
	}
}
