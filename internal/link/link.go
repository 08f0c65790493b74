package link

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"confllvm/internal/asm"
	"confllvm/internal/codegen"
)

// FuncSym is a linked function's metadata.
type FuncSym struct {
	Name      string
	Base      uint64 // first byte (magic word under CFI)
	Entry     uint64 // first instruction
	MagicAddr uint64 // address of the entry magic word (0 without CFI)
	Size      uint64
	ArgBits   uint8
	RetBit    uint8
	IsStub    bool
	Variadic  bool
}

// Ptr returns the function-pointer value for this function: the magic word
// address under CFI, the entry otherwise.
func (f *FuncSym) Ptr(cfi bool) uint64 {
	if cfi {
		return f.MagicAddr
	}
	return f.Entry
}

// Image is a linked, loadable U binary.
type Image struct {
	Code     []byte
	Funcs    []*FuncSym
	byName   map[string]*FuncSym
	PubData  []byte // initialized public region prefix (externals + globals)
	PrivData []byte // initialized private region prefix

	Symbols   map[string]uint64 // data symbol -> absolute address
	Externals []string          // T functions in externals-table order

	// MCallPrefix and MRetPrefix are the two unique 59-bit magic
	// prefixes, stored shifted into the top 59 bits (low 5 bits zero).
	MCallPrefix uint64
	MRetPrefix  uint64

	Layout Layout
	Config codegen.Config

	// ExitShim maps a return-taint bit to the address a returning
	// top-level function lands on (a magic word + exit instruction).
	ExitShim [2]uint64

	// magicOffsets records where magic words legitimately live in Code
	// (used by the uniqueness scan and by tests).
	magicOffsets map[int]bool
}

// Func looks up a linked function by name.
func (img *Image) Func(name string) *FuncSym { return img.byName[name] }

// MagicOffsets exposes the legitimate magic word offsets (for tests and
// fault injection).
func (img *Image) MagicOffsets() map[int]bool { return img.magicOffsets }

// ExternalSlotAddr returns the absolute address of externals-table slot i.
// The table lives in its own read-only region (see Layout.ExtTableOff).
func (img *Image) ExternalSlotAddr(i int) uint64 {
	return img.Layout.ExtTableBase() + uint64(8*i)
}

// item placement bookkeeping.
type placedFunc struct {
	fc       *codegen.FuncCode
	base     uint64
	size     uint64
	blockOff map[int]uint64
	trapOff  uint64
}

// Link assembles the module. seed drives magic-prefix selection (the
// prefixes are random; the seed makes builds reproducible).
func Link(m *codegen.Module, layout Layout, seed int64) (*Image, error) {
	img := &Image{
		byName:       map[string]*FuncSym{},
		Symbols:      map[string]uint64{},
		Externals:    m.Externs,
		Layout:       layout,
		Config:       m.Config,
		magicOffsets: map[int]bool{},
	}

	// ---- Pass A: function sizes and block offsets ----
	var placed []*placedFunc
	cursor := layout.CodeBase
	place := func(fc *codegen.FuncCode) *placedFunc {
		p := &placedFunc{fc: fc, blockOff: map[int]uint64{}}
		cursor = (cursor + 15) &^ 15
		p.base = cursor
		off := uint64(0)
		for _, it := range fc.Items {
			if it.Label >= 0 {
				p.blockOff[it.Label] = off
			}
			if it.Label == -2 { // trap site
				p.trapOff = off
			}
			if it.Magic {
				off += 8
			} else {
				off += uint64(asm.EncodedLen(it.Inst.Op))
			}
		}
		p.size = off
		cursor += off
		placed = append(placed, p)
		return p
	}
	for _, fc := range m.Funcs {
		place(fc)
	}
	// Exit shims: where top-level functions return to. Under CFI each is
	// an MRet magic word followed by exit; otherwise just exit.
	exitShims := [2]*placedFunc{}
	for bit := 0; bit < 2; bit++ {
		fc := &codegen.FuncCode{Name: fmt.Sprintf("_exit%d", bit), RetBit: uint8(bit)}
		if m.Config.CFI {
			fc.Items = append(fc.Items, codegen.Item{Magic: true, MagicCall: false,
				MagicBits: uint8(bit), Label: -1})
		}
		fc.Items = append(fc.Items, codegen.Item{Inst: asm.Inst{Op: asm.OpExit}, Label: -1})
		exitShims[bit] = place(fc)
	}

	// Function symbols.
	for i, p := range placed {
		fs := &FuncSym{
			Name: p.fc.Name, Base: p.base, Size: p.size,
			ArgBits: p.fc.ArgBits, RetBit: p.fc.RetBit,
			IsStub: p.fc.IsStub, Variadic: p.fc.Variadic,
		}
		fs.Entry = p.base
		if m.Config.CFI {
			fs.MagicAddr = p.base
			fs.Entry = p.base + 8
		}
		img.Funcs = append(img.Funcs, fs)
		img.byName[fs.Name] = fs
		if i >= len(placed)-2 { // the two exit shims
			bit := i - (len(placed) - 2)
			if m.Config.CFI {
				img.ExitShim[bit] = fs.MagicAddr
			} else {
				img.ExitShim[bit] = fs.Entry
			}
		}
	}
	if img.byName["main"] == nil {
		return nil, fmt.Errorf("link: no main function")
	}

	// ---- Pass B: data layout ----
	// The externals table lives in its own read-only region; globals fill
	// each data region from its base.
	pubCur := uint64(0)
	privCur := uint64(0)
	type placedGlobal struct {
		off     uint64
		private bool
	}
	globs := map[string]placedGlobal{}
	for _, g := range m.Globals {
		private := m.GlobalRegion[g.Name]
		al := uint64(g.Type.Align())
		if al < 1 {
			al = 1
		}
		if private {
			privCur = (privCur + al - 1) &^ (al - 1)
			globs[g.Name] = placedGlobal{privCur, true}
			img.Symbols[g.Name] = layout.PrivBase + privCur
			privCur += uint64(len(g.Data))
		} else {
			pubCur = (pubCur + al - 1) &^ (al - 1)
			globs[g.Name] = placedGlobal{pubCur, false}
			img.Symbols[g.Name] = layout.PubBase + pubCur
			pubCur += uint64(len(g.Data))
		}
	}
	img.PubData = make([]byte, pubCur)
	img.PrivData = make([]byte, privCur)
	extIndex := map[string]int{}
	for i, e := range m.Externs {
		extIndex[e] = i
	}

	// symValue resolves any symbol to its address (data or function ptr).
	symValue := func(name string) (uint64, error) {
		if a, ok := img.Symbols[name]; ok {
			return a, nil
		}
		if fs := img.byName[name]; fs != nil {
			return fs.Ptr(m.Config.CFI), nil
		}
		return 0, fmt.Errorf("link: undefined symbol %q", name)
	}

	// Fill initialized global data (with relocations).
	for _, g := range m.Globals {
		pg := globs[g.Name]
		var dst []byte
		if pg.private {
			dst = img.PrivData[pg.off:]
		} else {
			dst = img.PubData[pg.off:]
		}
		copy(dst, g.Data)
		for _, rel := range g.Relocs {
			v, err := symValue(rel.Symbol)
			if err != nil {
				return nil, err
			}
			binary.LittleEndian.PutUint64(dst[rel.Off:], v)
		}
	}

	// ---- Pass C: choose magic prefixes, patch, encode, verify ----
	rng := rand.New(rand.NewSource(seed))
	for attempt := 0; attempt < 64; attempt++ {
		mcall := rng.Uint64() &^ 31
		mret := rng.Uint64() &^ 31
		if mcall == 0 || mret == 0 || mcall == mret {
			continue
		}
		code, magicOffs, err := encodeAll(m, layout, placed, img, extIndex, mcall, mret)
		if err != nil {
			return nil, err
		}
		if scanUnique(code, mcall, mret, magicOffs) {
			img.Code = code
			img.MCallPrefix = mcall
			img.MRetPrefix = mret
			img.magicOffsets = magicOffs
			return img, nil
		}
	}
	return nil, fmt.Errorf("link: could not find unique magic prefixes")
}

// encodeAll patches relocations and encodes every function.
func encodeAll(m *codegen.Module, layout Layout, placed []*placedFunc,
	img *Image, extIndex map[string]int, mcall, mret uint64) ([]byte, map[int]bool, error) {

	var code []byte
	magicOffs := map[int]bool{}
	base := layout.CodeBase

	for _, p := range placed {
		// Alignment padding with nops.
		for uint64(len(code))+base < p.base {
			code = append(code, byte(asm.OpNop))
		}
		for _, it := range p.fc.Items {
			if it.Magic {
				word := mret
				if it.MagicCall {
					word = mcall
				}
				word |= uint64(it.MagicBits)
				magicOffs[len(code)] = true
				code = asm.AppendMagic(code, word)
				continue
			}
			inst := it.Inst
			switch it.Rel {
			case codegen.RelNone:
			case codegen.RelFunc:
				fs := img.byName[it.Sym]
				if fs == nil {
					return nil, nil, fmt.Errorf("link: call to undefined function %q", it.Sym)
				}
				inst.Imm = int64(fs.Entry)
			case codegen.RelFuncPtr:
				fs := img.byName[it.Sym]
				if fs == nil {
					return nil, nil, fmt.Errorf("link: address of undefined function %q", it.Sym)
				}
				inst.Imm = int64(fs.Ptr(m.Config.CFI))
			case codegen.RelGlobal:
				a, ok := img.Symbols[it.Sym]
				if !ok {
					return nil, nil, fmt.Errorf("link: undefined global %q", it.Sym)
				}
				inst.Imm = int64(a)
			case codegen.RelBlock:
				off, ok := p.blockOff[it.Blk]
				if !ok {
					return nil, nil, fmt.Errorf("link: %s: undefined block b%d", p.fc.Name, it.Blk)
				}
				inst.Imm = int64(p.base + off)
			case codegen.RelTrap:
				inst.Imm = int64(p.base + p.trapOff)
			case codegen.RelExtSlot:
				i, ok := extIndex[it.Sym]
				if !ok {
					return nil, nil, fmt.Errorf("link: unknown extern %q", it.Sym)
				}
				inst.Imm = int64(layout.ExtTableBase() + uint64(8*i))
			case codegen.RelRetMagicNot:
				// The item's Imm holds the 5 taint bits.
				inst.Imm = int64(^(mret | uint64(inst.Imm)))
			case codegen.RelCallMagicNot:
				inst.Imm = int64(^(mcall | uint64(inst.Imm)))
			}
			code = asm.Encode(code, inst)
		}
	}
	return code, magicOffs, nil
}

// scanUnique checks that the magic prefixes appear nowhere in the code
// except at the recorded magic-word offsets (the paper's §6 uniqueness
// requirement). The scan covers every byte offset.
func scanUnique(code []byte, mcall, mret uint64, magicOffs map[int]bool) bool {
	for i := 0; i+8 <= len(code); i++ {
		w := binary.LittleEndian.Uint64(code[i:])
		p := w &^ 31
		if p == mcall || p == mret {
			if !magicOffs[i] {
				return false
			}
		}
	}
	return true
}
