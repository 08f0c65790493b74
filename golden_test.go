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
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/compile_digests.txt from the current compiler")

const goldenDigests = "testdata/compile_digests.txt"

// imageDigest is a SHA-256 over an image's code bytes and its layout
// fields, in declaration order.
func imageDigest(art *confllvm.Artifact) string {
	h := sha256.New()
	h.Write(art.Image.Code)
	if err := binary.Write(h, binary.LittleEndian, art.Image.Layout); err != nil {
		panic(err) // Layout is all fixed-size fields
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
