package link_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"confllvm"
	"confllvm/internal/codegen"
	"confllvm/internal/link"
)

const prog = `
extern void output(long v);
int add(int a, int b) { return a + b; }
int main() { output(add(2, 3)); return 0; }
`

func buildImage(t *testing.T, v confllvm.Variant) *link.Image {
	t.Helper()
	art, err := confllvm.Compile(confllvm.Program{
		Sources: []confllvm.Source{{Name: "p.c", Code: prog}},
	}, v)
	if err != nil {
		t.Fatal(err)
	}
	return art.Image
}

func TestMagicPrefixUniqueness(t *testing.T) {
	img := buildImage(t, confllvm.VariantMPX)
	if img.MCallPrefix == 0 || img.MRetPrefix == 0 || img.MCallPrefix == img.MRetPrefix {
		t.Fatal("bad magic prefixes")
	}
	if img.MCallPrefix&31 != 0 || img.MRetPrefix&31 != 0 {
		t.Fatal("prefixes must leave the low 5 taint bits clear")
	}
	// Scan every byte offset: each prefix occurrence must be a recorded
	// magic word (the §6 uniqueness property).
	magic := img.MagicOffsets()
	for i := 0; i+8 <= len(img.Code); i++ {
		w := binary.LittleEndian.Uint64(img.Code[i:])
		if p := w &^ 31; p == img.MCallPrefix || p == img.MRetPrefix {
			if !magic[i] {
				t.Fatalf("stray magic prefix at offset %#x", i)
			}
		}
	}
}

func TestDeterministicBuilds(t *testing.T) {
	a := buildImage(t, confllvm.VariantSeg)
	b := buildImage(t, confllvm.VariantSeg)
	if !bytes.Equal(a.Code, b.Code) {
		t.Fatal("builds with the same seed must be byte-identical")
	}
}

func TestFunctionSymbols(t *testing.T) {
	img := buildImage(t, confllvm.VariantMPX)
	main := img.Func("main")
	add := img.Func("add")
	if main == nil || add == nil {
		t.Fatal("symbols missing")
	}
	if main.Entry != main.MagicAddr+8 {
		t.Error("entry must follow the magic word under CFI")
	}
	// add(int, int) -> int: args 0,1 public, 2,3 unused=private, ret public.
	if add.ArgBits != 0b01100 {
		t.Errorf("add taint bits = %05b, want 01100", add.ArgBits)
	}
	if stub := img.Func("output"); stub == nil || !stub.IsStub {
		t.Error("extern function must have a stub")
	}
}

func TestSerializeRoundtrip(t *testing.T) {
	img := buildImage(t, confllvm.VariantSeg)
	var buf bytes.Buffer
	if err := img.Save(&buf, "OurSeg"); err != nil {
		t.Fatal(err)
	}
	got, variant, err := link.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if variant != "OurSeg" {
		t.Errorf("variant tag = %q, want OurSeg", variant)
	}
	if !bytes.Equal(got.Code, img.Code) {
		t.Error("code changed across serialization")
	}
	if got.MCallPrefix != img.MCallPrefix || got.MRetPrefix != img.MRetPrefix {
		t.Error("prefixes changed")
	}
	if got.Func("main") == nil || got.Func("main").Entry != img.Func("main").Entry {
		t.Error("function symbols changed")
	}
	if len(got.MagicOffsets()) != len(img.MagicOffsets()) {
		t.Error("magic offsets changed")
	}
	if got.Layout != img.Layout || got.Config != img.Config {
		t.Error("layout/config changed")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, _, err := link.Load(bytes.NewReader([]byte("not an image"))); err == nil {
		t.Fatal("garbage must be rejected")
	}
}

func TestLayoutInvariants(t *testing.T) {
	for _, l := range []link.Layout{link.MPXLayout(), link.SegLayout()} {
		if l.Offset() <= 0 {
			t.Error("private region must be above public")
		}
		lo0, hi0 := l.StackBounds(l.PubBase, 0)
		lo1, hi1 := l.StackBounds(l.PubBase, 1)
		if hi1 != lo0 || hi0-lo0 != l.ThreadStack || hi1-lo1 != l.ThreadStack {
			t.Error("thread stacks must tile downward")
		}
	}
	mpx := link.MPXLayout()
	if mpx.Offset() > (1<<31)-1 {
		t.Error("MPX OFFSET must fit a 32-bit displacement")
	}
	seg := link.SegLayout()
	if seg.Offset() < 36<<30 {
		t.Error("segment scheme needs at least 36 GB of guard space")
	}
	// The segment bases must be 4 GB aligned so that fs/gs + low32(reg)
	// reconstructs in-segment addresses exactly (§3).
	if seg.PubBase%(4<<30) != 0 || seg.PrivBase%(4<<30) != 0 {
		t.Error("segment bases must be 4 GB aligned")
	}
}

// TestMPXGuardUnmapped: a loaded OurMPX image maps nothing within
// codegen.MPXGuard below or above the public and the private region,
// which is what lets a check on a base register cover [base + disp] for
// every displacement codegen.GuardCovers accepts.
func TestMPXGuardUnmapped(t *testing.T) {
	art, err := confllvm.Compile(confllvm.Program{
		Sources: []confllvm.Source{{Name: "p.c", Code: prog}},
	}, confllvm.VariantMPX)
	if err != nil {
		t.Fatal(err)
	}
	p, err := confllvm.Prepare(art, confllvm.NewWorld(), nil)
	if err != nil {
		t.Fatal(err)
	}
	l := art.Image.Layout
	if l != link.MPXLayout() {
		t.Fatalf("OurMPX image layout %+v, want MPXLayout", l)
	}
	var guards [][2]uint64 // [lo, hi)
	for _, base := range []uint64{l.PubBase, l.PrivBase} {
		guards = append(guards, [2]uint64{base - codegen.MPXGuard, base},
			[2]uint64{base + l.UsableSize, base + l.UsableSize + codegen.MPXGuard})
	}
	for _, r := range p.Machine().Mem.Regions() {
		for _, g := range guards {
			if r.Lo < g[1] && g[0] < r.End() {
				t.Errorf("region %s [%#x, %#x) overlaps the guard [%#x, %#x)", r.Name, r.Lo, r.End(), g[0], g[1])
			}
		}
	}
	if !codegen.GuardCovers(-codegen.MPXGuard) || codegen.GuardCovers(-codegen.MPXGuard-1) ||
		!codegen.GuardCovers(codegen.MPXGuard-8) || codegen.GuardCovers(codegen.MPXGuard-7) {
		t.Error("GuardCovers must accept exactly [-MPXGuard, MPXGuard-8]")
	}
}
