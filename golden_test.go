package confllvm_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"confllvm"
	"confllvm/internal/bench"
	"confllvm/internal/ir"
	"confllvm/internal/opt"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/compile_digests.txt from the current compiler")

const goldenDigests = "testdata/compile_digests.txt"

// imageDigest is a SHA-256 over an image's code bytes, its layout fields
// in declaration order, its public and private data, and each function's
// CFI taint bits (which the loader also reads to pick a thread's exit
// shim).
func imageDigest(art *confllvm.Artifact) string {
	img := art.Image
	h := sha256.New()
	h.Write(img.Code)
	if err := binary.Write(h, binary.LittleEndian, img.Layout); err != nil {
		panic(err) // Layout is all fixed-size fields
	}
	h.Write(img.PubData)
	h.Write(img.PrivData)
	for _, fs := range img.Funcs {
		h.Write([]byte{fs.ArgBits, fs.RetBit})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenCompileDigests compiles every benchmark program under every
// variant and compares each image's digest with the committed one. Any
// compiler change that alters an emitted byte fails here, so host-cost
// optimizations of the compile path are provably output-preserving. A
// change meant to alter code regenerates the file with -update and
// commits the diff.
func TestGoldenCompileDigests(t *testing.T) {
	var got strings.Builder
	for _, wl := range bench.Workloads(false) {
		for _, v := range confllvm.AllVariants() {
			art, err := confllvm.Compile(wl.Prog(v), v)
			if err != nil {
				t.Fatalf("%s/%v: compile: %v", wl.Name, v, err)
			}
			fmt.Fprintf(&got, "%s %v %s\n", wl.Name, v, imageDigest(art))
		}
	}
	if *updateGolden {
		if err := os.WriteFile(goldenDigests, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenDigests)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(got.String(), "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("%d digests, want %d", len(gotLines)-1, len(wantLines)-1)
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("digest mismatch:\n got  %s\n want %s", gotLines[i], wantLines[i])
		}
	}
}

// TestOptFixpoint: re-running the optimizer on any benchmark program's
// optimized IR changes nothing. opt.Run stops without a confirmation
// round when a round's only work was cleaning up truncElim's copies;
// this is what makes that sound on these programs.
func TestOptFixpoint(t *testing.T) {
	dump := func(m *ir.Module) string {
		var b strings.Builder
		for _, f := range m.Funcs {
			if f.Blocks != nil {
				b.WriteString(f.String())
			}
		}
		return b.String()
	}
	for _, wl := range bench.Workloads(false) {
		art, err := confllvm.Compile(wl.Prog(confllvm.VariantBase), confllvm.VariantBase)
		if err != nil {
			t.Fatalf("%s: compile: %v", wl.Name, err)
		}
		before := dump(art.IR)
		opt.Run(art.IR, opt.O2())
		if after := dump(art.IR); after != before {
			t.Errorf("%s: a second opt.Run changed the optimized IR", wl.Name)
		}
	}
}
