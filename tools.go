package confllvm

import (
	"encoding/binary"
	"fmt"
	"os"
	"sort"
	"strings"

	"confllvm/internal/asm"
	"confllvm/internal/link"
	"confllvm/internal/verify"
)

// SaveFile writes the artifact's image to disk (the "U dll" of Fig. 2),
// tagged with its variant.
func (a *Artifact) SaveFile(path string) error { return a.Image.SaveFile(path, a.Variant.String()) }

// LoadArtifactFile loads an image produced by SaveFile and wraps it as a
// runnable artifact of the variant recorded in the file. (Base and BaseOA
// share a codegen config, so the config alone cannot tell them apart.)
func LoadArtifactFile(path string) (*Artifact, error) {
	img, name, err := link.LoadFile(path)
	if err != nil {
		return nil, err
	}
	v, err := ParseVariant(name)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &Artifact{Image: img, Variant: v}, nil
}

// VerifyImageFile runs ConfVerify on an on-disk image (the standalone
// confverify tool: no compiler state, just the binary and its prefixes).
func VerifyImageFile(path string, strict bool) error {
	_, err := VerifyImageFileStats(path, verify.Options{Strict: strict})
	return err
}

// VerifyImageFileStats is VerifyImageFile with explicit verifier options
// (parallelism) and throughput stats — the entry point
// behind confverify's -par and -bench flags.
func VerifyImageFileStats(path string, opts verify.Options) (verify.Stats, error) {
	img, _, err := link.LoadFile(path)
	if err != nil {
		return verify.Stats{}, err
	}
	return verify.VerifyStats(img, opts)
}

// ParseVariant resolves a configuration name (as printed by String).
func ParseVariant(name string) (Variant, error) {
	for v := VariantBase; v < numVariants; v++ {
		if strings.EqualFold(v.String(), name) {
			return v, nil
		}
	}
	return 0, fmt.Errorf("unknown variant %q (try: base, baseoa, ourbare, ourcfi, ourmpx, ourseg)", name)
}

// Disassemble renders an assembly listing of the linked image, annotating
// function entries, magic words and code addresses — the ConfLLVM
// counterpart of objdump.
func Disassemble(art *Artifact) string {
	img := art.Image
	var b strings.Builder
	fmt.Fprintf(&b, "; %s image, %d bytes of code, %d functions\n",
		art.Variant, len(img.Code), len(img.Funcs))
	if img.Config.CFI {
		fmt.Fprintf(&b, "; MCall prefix %#x, MRet prefix %#x\n", img.MCallPrefix, img.MRetPrefix)
	}

	funcs := append([]*link.FuncSym{}, img.Funcs...)
	sort.Slice(funcs, func(i, j int) bool { return funcs[i].Base < funcs[j].Base })
	magic := img.MagicOffsets()

	for _, fs := range funcs {
		fmt.Fprintf(&b, "\n%s:  ; args=%05b ret=%d", fs.Name, fs.ArgBits, fs.RetBit)
		if fs.IsStub {
			b.WriteString(" (stub)")
		}
		b.WriteString("\n")
		off := int(fs.Base - img.Layout.CodeBase)
		end := off + int(fs.Size)
		for off < end {
			addr := img.Layout.CodeBase + uint64(off)
			if magic[off] {
				w := binary.LittleEndian.Uint64(img.Code[off:])
				kind := "MRET"
				if w&^31 == img.MCallPrefix {
					kind = "MCALL"
				}
				fmt.Fprintf(&b, "  %08x:  .magic %s|%05b\n", addr, kind, w&31)
				off += 8
				continue
			}
			inst, n, err := asm.Decode(img.Code, off)
			if err != nil {
				fmt.Fprintf(&b, "  %08x:  .byte %#02x\n", addr, img.Code[off])
				off++
				continue
			}
			fmt.Fprintf(&b, "  %08x:  %s\n", addr, inst)
			off += n
		}
	}
	return b.String()
}

// CompileFiles reads miniC sources from disk and compiles them.
func CompileFiles(paths []string, variant Variant, prog Program) (*Artifact, error) {
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		prog.Sources = append(prog.Sources, Source{Name: p, Code: string(data)})
	}
	return Compile(prog, variant)
}
