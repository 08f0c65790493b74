package link

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"confllvm/internal/codegen"
)

// imageFile is the on-disk representation of an Image (gob-encoded).
// Variant names the build configuration that produced the image; link
// only carries it, so that a reloaded image runs as what it was built as.
type imageFile struct {
	Magic       string
	Variant     string
	Code        []byte
	Funcs       []FuncSym
	PubData     []byte
	PrivData    []byte
	Symbols     map[string]uint64
	Externals   []string
	MCallPrefix uint64
	MRetPrefix  uint64
	Layout      Layout
	Config      codegen.Config
	ExitShim    [2]uint64
	MagicOffs   []int
}

const imageMagic = "CONFLLVM-IMG-2"

// Save writes the image to w, tagged with its variant name.
func (img *Image) Save(w io.Writer, variant string) error {
	f := imageFile{
		Magic:       imageMagic,
		Variant:     variant,
		Code:        img.Code,
		PubData:     img.PubData,
		PrivData:    img.PrivData,
		Symbols:     img.Symbols,
		Externals:   img.Externals,
		MCallPrefix: img.MCallPrefix,
		MRetPrefix:  img.MRetPrefix,
		Layout:      img.Layout,
		Config:      img.Config,
		ExitShim:    img.ExitShim,
	}
	for _, fs := range img.Funcs {
		f.Funcs = append(f.Funcs, *fs)
	}
	for off := range img.magicOffsets {
		f.MagicOffs = append(f.MagicOffs, off)
	}
	return gob.NewEncoder(w).Encode(&f)
}

// Load reads an image written by Save and returns it with its variant
// name.
func Load(r io.Reader) (*Image, string, error) {
	var f imageFile
	if err := gob.NewDecoder(r).Decode(&f); err != nil {
		return nil, "", fmt.Errorf("link: corrupt image: %w", err)
	}
	if f.Magic != imageMagic {
		return nil, "", fmt.Errorf("link: not a ConfLLVM image")
	}
	img := &Image{
		Code:         f.Code,
		PubData:      f.PubData,
		PrivData:     f.PrivData,
		Symbols:      f.Symbols,
		Externals:    f.Externals,
		MCallPrefix:  f.MCallPrefix,
		MRetPrefix:   f.MRetPrefix,
		Layout:       f.Layout,
		Config:       f.Config,
		ExitShim:     f.ExitShim,
		byName:       map[string]*FuncSym{},
		magicOffsets: map[int]bool{},
	}
	for i := range f.Funcs {
		fs := f.Funcs[i]
		img.Funcs = append(img.Funcs, &fs)
		img.byName[fs.Name] = &fs
	}
	for _, off := range f.MagicOffs {
		img.magicOffsets[off] = true
	}
	return img, f.Variant, nil
}

// SaveFile writes the image to path, tagged with its variant name.
func (img *Image) SaveFile(path, variant string) error {
	var buf bytes.Buffer
	if err := img.Save(&buf, variant); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// LoadFile reads an image and its variant name from path.
func LoadFile(path string) (*Image, string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	return Load(bytes.NewReader(data))
}
