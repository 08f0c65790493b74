package confllvm

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestImageFileRoundTrip: an image written by SaveFile reloads as the
// variant it was built as. Base and BaseOA share a codegen config, so
// only the variant recorded in the file keeps BaseOA on its free-list
// allocator. The standalone verifier accepts the checked variants' files
// and rejects Base's.
func TestImageFileRoundTrip(t *testing.T) {
	src := Source{"rt.c", `
int sq(int x) { return x * x; }
int main() { return sq(6); }
`}
	dir := t.TempDir()
	for _, v := range append(AllVariants(), VariantMPXNaive) {
		art, err := Compile(Program{Sources: []Source{src}}, v)
		if err != nil {
			t.Fatalf("[%v] compile: %v", v, err)
		}
		path := filepath.Join(dir, v.String()+".img")
		if err := art.SaveFile(path); err != nil {
			t.Fatalf("[%v] save: %v", v, err)
		}
		got, err := LoadArtifactFile(path)
		if err != nil {
			t.Fatalf("[%v] load: %v", v, err)
		}
		if got.Variant != v || got.Variant.AllocMode() != v.AllocMode() {
			t.Errorf("[%v] reloaded as %v (alloc %v, want %v)",
				v, got.Variant, got.Variant.AllocMode(), v.AllocMode())
		}
		if !bytes.Equal(got.Image.Code, art.Image.Code) || got.Image.Config != art.Image.Config {
			t.Errorf("[%v] code or config changed across the file", v)
		}
		res, err := Run(got, nil, nil)
		if err != nil || res.Fault != nil || res.ExitCode != 36 {
			t.Errorf("[%v] reloaded run: exit %d, fault %v, err %v", v, res.ExitCode, res.Fault, err)
		}

		verr := VerifyImageFile(path, false)
		switch v {
		case VariantMPX, VariantSeg:
			if verr != nil {
				t.Errorf("[%v] verifier rejected the image file: %v", v, verr)
			}
		case VariantBase:
			if verr == nil || !strings.Contains(verr.Error(), "only CFI-enabled configurations") {
				t.Errorf("[%v] verifier error = %v, want the CFI-only rejection", v, verr)
			}
		}
	}
}

// TestParseVariantNamesEveryVariant: the unknown-variant hint lists
// every name ParseVariant accepts, and each of them parses back.
func TestParseVariantNamesEveryVariant(t *testing.T) {
	_, err := ParseVariant("foo")
	if err == nil {
		t.Fatal("ParseVariant accepted an unknown name")
	}
	for v := VariantBase; v < numVariants; v++ {
		name := strings.ToLower(v.String())
		if !strings.Contains(err.Error(), name) {
			t.Errorf("hint %q does not name %s", err, name)
		}
		if got, err := ParseVariant(name); err != nil || got != v {
			t.Errorf("ParseVariant(%q) = %v, %v", name, got, err)
		}
	}
}
