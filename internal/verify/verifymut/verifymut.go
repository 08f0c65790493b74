// Package verifymut generates adversarial mutants of linked images for
// mutation-testing the verifier: each mutator lowers one
// confidentiality violation — the binary-level analogue of
// internal/formal's InjectLeak — into a real compiled image by an
// in-place byte rewrite (the fixed-length encoding means no offsets
// shift), and records where and why ConfVerify must reject the result.
//
// A mutator is *guaranteed-kill* by construction: it only fires on sites
// where the verifier's own rules make rejection inevitable (e.g. a
// private-region load feeding a straight-line store is private under the
// may-private join no matter what other paths exist). Mutants are never
// "maybe equivalent" — a mutant that verifies clean is a verifier bug,
// and the mutation harness (internal/verify/mutation_test.go) fails on
// any kill rate below 100%.
//
// The taxonomy (see internal/verify/README.md):
//
//   - check removal: drop-mpx-check, chksp-drop
//   - evidence forgery: seg-store-public, seg-unprefixed, seg-use32-drop,
//     mpx-disp-escape, mpx-index-inject
//   - interface lies: entry-bits-clear, arg-redirect
//   - CFI splicing: call-skip-magic, icall-strip-check, ret-to-plain,
//     stray-magic-inject
//   - privilege escape: syscall-inject, wrgs-inject
package verifymut

import (
	"encoding/binary"
	"fmt"
	"sort"

	"confllvm/internal/asm"
	"confllvm/internal/codegen"
	"confllvm/internal/link"
	"confllvm/internal/rng"
)

// Mutant is one corrupted image plus the rejection contract the verifier
// must honor.
type Mutant struct {
	// Name identifies the mutant (mutator plus site offset).
	Name string
	// Mutator is the operator that produced it.
	Mutator string
	// Image is the mutated image (its Code is a private copy; the source
	// image is never modified).
	Image *link.Image
	// MutOff is the code offset the mutator rewrote.
	MutOff int
	// WantOffs lists the acceptable verify.Error offsets. Most mutators
	// pin exactly one; check-removal mutators list every access the
	// removed check covered (check coalescing means the first uncovered
	// access in dataflow order is the one reported).
	WantOffs []int
	// WantMsg is a substring the verify.Error message must contain.
	WantMsg string
}

// Mutator is one seeded mutation operator.
type Mutator struct {
	Name string
	// Apply returns the mutant for a seeded site pick, or nil when the
	// image has no applicable site (not every operator fits every
	// bounds scheme or program shape).
	Apply func(img *link.Image, seed uint64) *Mutant
}

// pick draws a site index in [0, n) from the frozen seeded stream, so a
// (seed, image) pair always picks the same site.
func pick(seed uint64, n int) int {
	if n <= 0 {
		return -1
	}
	return int(rng.New(seed).Intn(uint64(n)))
}

// site is one linearly decoded instruction inside a non-stub function.
type site struct {
	off int
	in  asm.Inst
	n   int
	fn  *link.FuncSym
}

// walk linearly decodes every non-stub function body, skipping magic
// words. Linear decode over compiler output enumerates exactly the
// emitted instructions (functions are contiguous; magic words are the
// only embedded data).
func walk(img *link.Image) []site {
	var sites []site
	magic := img.MagicOffsets()
	for _, fn := range img.Funcs {
		if fn.IsStub {
			continue
		}
		off := int(fn.Base - img.Layout.CodeBase)
		end := off + int(fn.Size)
		for off < end {
			if magic[off] {
				off += 8
				continue
			}
			in, n, err := asm.Decode(img.Code, off)
			if err != nil {
				off++
				continue
			}
			sites = append(sites, site{off: off, in: in, n: n, fn: fn})
			off += n
		}
	}
	return sites
}

// mutate shallow-copies the image with a private copy of its code and
// applies edit to the copy.
func mutate(img *link.Image, edit func(code []byte)) *link.Image {
	m := *img
	m.Code = append([]byte{}, img.Code...)
	edit(m.Code)
	return &m
}

func nopOut(code []byte, off, n int) {
	for i := 0; i < n; i++ {
		code[off+i] = byte(asm.OpNop)
	}
}

// entryBitsAt returns the taint bits of the procedure entry at code
// offset entryOff (the magic word sits 8 bytes before it), or false if
// entryOff is not a procedure entry.
func entryBitsAt(img *link.Image, entryOff int) (uint8, bool) {
	w, ok := asm.ReadWord(img.Code, entryOff-8)
	if !ok || w&^31 != img.MCallPrefix {
		return 0, false
	}
	return uint8(w & 31), true
}

// isAccess reports whether in is a load or store, the instructions the
// operand mutators rewrite. Where an instruction's memory operand sits
// in its encoding is asm's fact: site.off + in.Op.MemOffset().
func isAccess(in asm.Inst) bool {
	switch in.Op {
	case asm.OpLoad, asm.OpStore, asm.OpFLoad, asm.OpFStore:
		return true
	}
	return false
}

// Mutators returns the built-in operator corpus.
func Mutators() []Mutator {
	return []Mutator{
		{"drop-mpx-check", dropMPXCheck},
		{"chksp-drop", chkspDrop},
		{"seg-store-public", segStorePublic},
		{"seg-unprefixed", segUnprefixed},
		{"seg-use32-drop", segUse32Drop},
		{"mpx-disp-escape", mpxDispEscape},
		{"mpx-index-inject", mpxIndexInject},
		{"entry-bits-clear", entryBitsClear},
		{"arg-redirect", argRedirect},
		{"call-skip-magic", callSkipMagic},
		{"icall-strip-check", icallStripCheck},
		{"ret-to-plain", retToPlain},
		{"stray-magic-inject", strayMagicInject},
		{"syscall-inject", syscallInject},
		{"wrgs-inject", wrgsInject},
	}
}

// Generate applies every built-in mutator to the image with seeded site
// selection and returns the applicable mutants.
func Generate(img *link.Image, seed uint64) []*Mutant {
	var out []*Mutant
	for i, m := range Mutators() {
		if mut := m.Apply(img, rng.New(seed+uint64(i)).Next()); mut != nil {
			mut.Mutator = m.Name
			mut.Name = fmt.Sprintf("%s@%#x", m.Name, mut.MutOff)
			out = append(out, mut)
		}
	}
	return out
}

// dropMPXCheck NOPs a contiguous [bndcl r][bndcu r] pair that guards the
// immediately following memory access: the access (and every later
// access the coalesced pair covered) loses its evidence, so the verifier
// must report "memory operand without MPX bound checks" at one of them.
func dropMPXCheck(img *link.Image, seed uint64) *Mutant {
	sites := walk(img)
	type cand struct {
		lo, hi site // the check pair
		covers []int
	}
	var cands []cand
	for i := 0; i+2 < len(sites); i++ {
		lo, hi := sites[i], sites[i+1]
		if lo.in.Op != asm.OpBndCLReg || hi.in.Op != asm.OpBndCUReg ||
			lo.in.Src != hi.in.Src || lo.in.Bnd != hi.in.Bnd ||
			lo.off+lo.n != hi.off || hi.off+hi.n != sites[i+2].off {
			continue
		}
		base := lo.in.Src
		// Collect the linear run of accesses on this base that the pair
		// may cover: stop at control flow, a write to the base, or a
		// fresh check pair on it.
		var covers []int
		for j := i + 2; j < len(sites) && sites[j].fn == lo.fn; j++ {
			in := sites[j].in
			if in.Op.EndsBlock() {
				break
			}
			if (in.Op == asm.OpBndCLReg || in.Op == asm.OpBndCUReg) && in.Src == base {
				break
			}
			switch in.Op {
			case asm.OpLoad, asm.OpStore, asm.OpFLoad, asm.OpFStore:
				if in.M.Base == base && in.M.Index == asm.NoReg {
					covers = append(covers, sites[j].off)
				}
			}
			if in.WrittenGPR() == base {
				break
			}
		}
		if len(covers) > 0 {
			cands = append(cands, cand{lo, hi, covers})
		}
	}
	if len(cands) == 0 {
		return nil
	}
	c := cands[pick(seed, len(cands))]
	m := mutate(img, func(code []byte) {
		nopOut(code, c.lo.off, c.lo.n+c.hi.n)
	})
	return &Mutant{Image: m, MutOff: c.lo.off, WantOffs: c.covers,
		WantMsg: "memory operand without MPX bound checks"}
}

// chkspDrop NOPs every chksp in a frame-allocating function, so the
// frame is allocated with no stack check at all.
func chkspDrop(img *link.Image, seed uint64) *Mutant {
	sites := walk(img)
	byFn := map[*link.FuncSym][]site{}
	for _, s := range sites {
		byFn[s.fn] = append(byFn[s.fn], s)
	}
	var cands []*link.FuncSym
	for _, fn := range img.Funcs {
		hasSub, hasChk := false, false
		for _, s := range byFn[fn] {
			if s.in.Op == asm.OpSubRI && s.in.Dst == asm.RSP {
				hasSub = true
			}
			if s.in.Op == asm.OpChkSP {
				hasChk = true
			}
		}
		if hasSub && hasChk {
			cands = append(cands, fn)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	fn := cands[pick(seed, len(cands))]
	first := -1
	m := mutate(img, func(code []byte) {
		for _, s := range byFn[fn] {
			if s.in.Op == asm.OpChkSP {
				if first < 0 {
					first = s.off
				}
				nopOut(code, s.off, s.n)
			}
		}
	})
	entry := int(fn.Base-img.Layout.CodeBase) + 8
	return &Mutant{Image: m, MutOff: first, WantOffs: []int{entry},
		WantMsg: "frame allocation without a chksp stack check"}
}

// segStorePublic retargets a private store to the public segment: it
// finds a GS load into r followed by a straight-line, r-preserving run
// ending in a GS store of r, and flips the store's segment to FS. The
// fall-through path makes r private at the store, and the may-private
// join keeps it private no matter what other paths merge in — the
// verifier must report the private-to-public store.
func segStorePublic(img *link.Image, seed uint64) *Mutant {
	sites := walk(img)
	type cand struct{ store site }
	var cands []cand
	for i, s := range sites {
		if s.in.Op != asm.OpLoad || s.in.M.Seg != asm.SegGS {
			continue
		}
		r := s.in.Dst
		for j := i + 1; j < len(sites) && sites[j].fn == s.fn; j++ {
			t := sites[j]
			if t.off != sites[j-1].off+sites[j-1].n {
				break // magic word between: not straight-line
			}
			if t.in.Op == asm.OpStore && t.in.M.Seg == asm.SegGS && t.in.Src == r {
				cands = append(cands, cand{t})
				break
			}
			if t.in.Op.EndsBlock() || t.in.WrittenGPR() == r {
				break
			}
		}
	}
	if len(cands) == 0 {
		return nil
	}
	c := cands[pick(seed, len(cands))]
	fo := c.store.off + c.store.in.Op.MemOffset()
	m := mutate(img, func(code []byte) {
		code[fo] = code[fo]&^3 | byte(asm.SegFS)
	})
	return &Mutant{Image: m, MutOff: c.store.off, WantOffs: []int{c.store.off},
		WantMsg: "private register stored to public memory"}
}

// segUnprefixed strips the segment prefix from a memory operand: under
// the segmentation scheme every access must carry FS or GS evidence.
func segUnprefixed(img *link.Image, seed uint64) *Mutant {
	c := pickSegOperand(img, seed)
	if c == nil {
		return nil
	}
	fo := c.off + c.in.Op.MemOffset()
	m := mutate(img, func(code []byte) {
		code[fo] &^= 3 // SegNone
	})
	return &Mutant{Image: m, MutOff: c.off, WantOffs: []int{c.off},
		WantMsg: "unprefixed memory operand under segmentation scheme"}
}

// segUse32Drop clears the 32-bit-operand constraint on a segment-prefixed
// access: without Use32 the truncation argument that confines the access
// to its region is gone.
func segUse32Drop(img *link.Image, seed uint64) *Mutant {
	c := pickSegOperand(img, seed)
	if c == nil {
		return nil
	}
	fo := c.off + c.in.Op.MemOffset()
	m := mutate(img, func(code []byte) {
		code[fo] &^= 1 << 2
	})
	return &Mutant{Image: m, MutOff: c.off, WantOffs: []int{c.off},
		WantMsg: "segment-scheme operand without 32-bit constraint"}
}

// pickSegOperand selects a seeded load/store with a segment prefix.
func pickSegOperand(img *link.Image, seed uint64) *site {
	var cands []site
	for _, s := range walk(img) {
		if !isAccess(s.in) || s.in.M.Seg == asm.SegNone {
			continue
		}
		cands = append(cands, s)
	}
	if len(cands) == 0 {
		return nil
	}
	c := cands[pick(seed, len(cands))]
	return &c
}

// mpxOperands lists the loads and stores of an MPX image whose operand a
// bound check covers: every one not relative to rsp.
func mpxOperands(img *link.Image) []site {
	if img.Config.Bounds != codegen.BoundsMPX {
		return nil
	}
	var cands []site
	for _, s := range walk(img) {
		if isAccess(s.in) && s.in.M.Base != asm.RSP {
			cands = append(cands, s)
		}
	}
	return cands
}

// mpxDispEscape moves a checked operand's displacement by OFFSET, up or
// down by the seed: the access now lands in the other region, far past
// the guard space its bound check relies on.
func mpxDispEscape(img *link.Image, seed uint64) *Mutant {
	cands := mpxOperands(img)
	if len(cands) == 0 {
		return nil
	}
	c := cands[pick(seed, len(cands))]
	delta := img.Layout.Offset()
	if seed&1 != 0 {
		delta = -delta
	}
	fo := c.off + c.in.Op.MemOffset()
	m := mutate(img, func(code []byte) {
		binary.LittleEndian.PutUint32(code[fo+3:], uint32(int64(c.in.M.Disp)+delta))
	})
	return &Mutant{Image: m, MutOff: c.off, WantOffs: []int{c.off},
		WantMsg: "displacement outside the guard zone of its bound check"}
}

// mpxIndexInject adds an index register to a checked operand that has
// none. The operand's check was on its base alone, and no memory-form
// check in the function names the injected index, so the index is
// unchecked.
func mpxIndexInject(img *link.Image, seed uint64) *Mutant {
	type cand struct {
		s   site
		idx asm.Reg
	}
	// Memory-form checks' (base, index) pairs per function, scale 1.
	checked := map[*link.FuncSym]map[[2]asm.Reg]bool{}
	for _, s := range walk(img) {
		if (s.in.Op == asm.OpBndCLMem || s.in.Op == asm.OpBndCUMem) && s.in.M.Scale == 1 {
			if checked[s.fn] == nil {
				checked[s.fn] = map[[2]asm.Reg]bool{}
			}
			checked[s.fn][[2]asm.Reg{s.in.M.Base, s.in.M.Index}] = true
		}
	}
	var cands []cand
	for _, s := range mpxOperands(img) {
		if s.in.M.Index != asm.NoReg {
			continue
		}
		for r := asm.Reg(0); r < asm.NumRegs; r++ {
			if r != asm.RSP && !checked[s.fn][[2]asm.Reg{s.in.M.Base, r}] {
				cands = append(cands, cand{s, r})
				break
			}
		}
	}
	if len(cands) == 0 {
		return nil
	}
	c := cands[pick(seed, len(cands))]
	fo := c.s.off + c.s.in.Op.MemOffset()
	m := mutate(img, func(code []byte) {
		code[fo] &^= 3 << 3 // scale 1
		code[fo+2] = byte(c.idx)
	})
	return &Mutant{Image: m, MutOff: c.s.off, WantOffs: []int{c.s.off},
		WantMsg: "indexed operand without a memory-form bound check"}
}

// privAt computes, for every walked site, a register set that is
// *provably* private right before that instruction under the verifier's
// dataflow. It is a lower bound: it only trusts straight-line runs
// starting at a function entry (seeded from the magic bits) or at a call
// return site (the verifier's call effect), and the may-private join
// means extra CFG paths merging into a run can only add private
// registers, never remove them — so every bit set here is set in the
// verifier's state too.
func privAt(img *link.Image, sites []site) []uint32 {
	out := make([]uint32, len(sites))
	var cur uint32
	valid := false
	set := func(r asm.Reg, p bool) {
		if p {
			cur |= 1 << r
		} else {
			cur &^= 1 << r
		}
	}
	has := func(r asm.Reg) bool { return cur&(1<<r) != 0 }

	for i, s := range sites {
		if i == 0 || sites[i-1].fn != s.fn || sites[i-1].off+sites[i-1].n != s.off {
			// A new straight-line run: re-seed the state if this is a
			// known anchor, else distrust it.
			valid, cur = false, 0
			entryOff := int(s.fn.Base-img.Layout.CodeBase) + 8
			if s.off == entryOff {
				if bits, ok := entryBitsAt(img, s.off); ok {
					valid = true
					for _, r := range asm.CallerSaved {
						set(r, true)
					}
					for k, r := range asm.ArgRegs {
						set(r, bits&(1<<k) != 0)
					}
				}
			} else if i > 0 && sites[i-1].fn == s.fn &&
				(sites[i-1].in.Op == asm.OpCall || sites[i-1].in.Op == asm.OpICall) &&
				sites[i-1].off+sites[i-1].n+8 == s.off {
				// Resuming past a call's return-site magic word: the
				// verifier's call effect.
				if w, ok := asm.ReadWord(img.Code, sites[i-1].off+sites[i-1].n); ok &&
					w&^31 == img.MRetPrefix {
					valid = true
					for _, r := range asm.CallerSaved {
						set(r, true)
					}
					set(asm.RetReg, w&1 != 0)
				}
			}
		}
		if !valid {
			continue
		}
		out[i] = cur

		in := s.in
		switch in.Op {
		case asm.OpMovRR:
			set(in.Dst, has(in.Src))
		case asm.OpMovRI, asm.OpLea, asm.OpPop, asm.OpSetCC,
			asm.OpCvtFI, asm.OpMovQFI:
			set(in.Dst, false)
		case asm.OpLoad:
			p := in.M.Seg == asm.SegGS
			if !p && i >= 2 {
				// MPX private-region evidence: an adjacent complete BND1
				// check pair on the base.
				lo, hi := sites[i-2], sites[i-1]
				p = lo.in.Op == asm.OpBndCLReg && hi.in.Op == asm.OpBndCUReg &&
					lo.in.Bnd == asm.BND1 && hi.in.Bnd == asm.BND1 &&
					lo.in.Src == in.M.Base && hi.in.Src == in.M.Base &&
					lo.off+lo.n == hi.off && hi.off+hi.n == s.off
			}
			set(in.Dst, p)
		case asm.OpAddRR, asm.OpSubRR, asm.OpMulRR, asm.OpDivRR, asm.OpModRR,
			asm.OpUDivRR, asm.OpUModRR, asm.OpAndRR, asm.OpOrRR, asm.OpXorRR,
			asm.OpShlRR, asm.OpShrRR, asm.OpSarRR:
			set(in.Dst, has(in.Dst) || has(in.Src))
		case asm.OpAddRI, asm.OpSubRI, asm.OpMulRI, asm.OpMulHiRI, asm.OpAndRI,
			asm.OpOrRI, asm.OpXorRI, asm.OpShlRI, asm.OpShrRI, asm.OpSarRI,
			asm.OpMovsx, asm.OpNeg, asm.OpNot:
			// dst taint unchanged
		case asm.OpJcc:
			// Fall-through keeps the state.
		default:
			if in.Op.EndsBlock() {
				valid = false
			} else if w := in.WrittenGPR(); w != asm.NoReg {
				set(w, false)
			}
		}
	}
	return out
}

// entryBitsClear lies about a callee's interface: it clears an argument
// taint bit on the entry magic word of a function that provably receives
// a private value in that register at some direct call site. The caller
// now passes private data to a "public" parameter, which the verifier
// must flag at one of the callee's call sites.
func entryBitsClear(img *link.Image, seed uint64) *Mutant {
	sites := walk(img)
	pv := privAt(img, sites)
	type cand struct {
		calleeEntry int
		argIdx      int
	}
	var cands []cand
	for i, s := range sites {
		if s.in.Op != asm.OpCall {
			continue
		}
		entry := int(uint64(s.in.Imm) - img.Layout.CodeBase)
		bits, ok := entryBitsAt(img, entry)
		if !ok {
			continue
		}
		for k, a := range asm.ArgRegs {
			if pv[i]&(1<<a) != 0 && bits&(1<<k) != 0 {
				cands = append(cands, cand{entry, k})
				break
			}
		}
	}
	if len(cands) == 0 {
		return nil
	}
	c := cands[pick(seed, len(cands))]
	// Clearing the bit turns *every* call site of the callee into a
	// potential violation; whichever the dataflow reaches first is the
	// reported one, so accept them all.
	var wantOffs []int
	for _, s := range sites {
		if s.in.Op == asm.OpCall &&
			int(uint64(s.in.Imm)-img.Layout.CodeBase) == c.calleeEntry {
			wantOffs = append(wantOffs, s.off)
		}
	}
	magicOff := c.calleeEntry - 8
	m := mutate(img, func(code []byte) {
		w := binary.LittleEndian.Uint64(code[magicOff:])
		binary.LittleEndian.PutUint64(code[magicOff:], w&^(1<<c.argIdx))
	})
	return &Mutant{Image: m, MutOff: magicOff, WantOffs: wantOffs,
		WantMsg: "public-argument call site"}
}

// argRedirect models the paper's ssl_send attack at the binary level: at
// a call passing a *public* argument, the final argument-staging move
// (directly before the call, so the redirect has no other consumers) is
// redirected to read from a register that is provably private at that
// point. Private data now flows into a public parameter.
func argRedirect(img *link.Image, seed uint64) *Mutant {
	sites := walk(img)
	pv := privAt(img, sites)
	type cand struct {
		mov     site // the staging move directly before the call
		callOff int
		evil    asm.Reg
	}
	var cands []cand
	for i, s := range sites {
		if s.in.Op != asm.OpCall || i == 0 {
			continue
		}
		mov := sites[i-1]
		if mov.fn != s.fn || mov.off+mov.n != s.off {
			continue
		}
		if mov.in.Op != asm.OpMovRR && mov.in.Op != asm.OpMovRI {
			continue
		}
		ai := -1
		for k, a := range asm.ArgRegs {
			if mov.in.Dst == a {
				ai = k
			}
		}
		if ai < 0 {
			continue
		}
		entry := int(uint64(s.in.Imm) - img.Layout.CodeBase)
		bits, ok := entryBitsAt(img, entry)
		// Only a *public* parameter makes the redirect a leak.
		if !ok || bits&(1<<ai) != 0 {
			continue
		}
		// An evil source: any register private right before the staging
		// move (lowest index for determinism), other than the destination.
		for r := asm.Reg(0); r < asm.NumRegs; r++ {
			if pv[i-1]&(1<<r) != 0 && r != mov.in.Dst {
				cands = append(cands, cand{mov, s.off, r})
				break
			}
		}
	}
	if len(cands) == 0 {
		return nil
	}
	c := cands[pick(seed, len(cands))]
	m := mutate(img, func(code []byte) {
		if c.mov.in.Op == asm.OpMovRR {
			// Retarget the source byte of [mov argreg, src]: the argument
			// register now copies the private register's taint.
			code[c.mov.off+2] = byte(c.evil)
			return
		}
		// Rewrite [mov argreg, imm] (11 bytes) in place as
		// [mov argreg, evil] (3 bytes) plus nop padding.
		code[c.mov.off] = byte(asm.OpMovRR)
		code[c.mov.off+1] = byte(c.mov.in.Dst)
		code[c.mov.off+2] = byte(c.evil)
		nopOut(code, c.mov.off+3, c.mov.n-3)
	})
	return &Mutant{Image: m, MutOff: c.mov.off,
		WantOffs: []int{c.callOff},
		WantMsg:  "public-argument call site"}
}

// callSkipMagic splices a direct call past the callee's CFI magic word:
// the target is no longer a procedure entry.
func callSkipMagic(img *link.Image, seed uint64) *Mutant {
	var cands []site
	for _, s := range walk(img) {
		if s.in.Op == asm.OpCall {
			cands = append(cands, s)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	c := cands[pick(seed, len(cands))]
	m := mutate(img, func(code []byte) {
		imm := binary.LittleEndian.Uint64(code[c.off+1:])
		binary.LittleEndian.PutUint64(code[c.off+1:], imm+8)
	})
	return &Mutant{Image: m, MutOff: c.off, WantOffs: []int{c.off},
		WantMsg: "call target is not a procedure entry"}
}

// icallStripCheck NOPs the [add rt, 8] that completes an indirect call's
// CFI check sequence, breaking the idiom the structural pass requires.
func icallStripCheck(img *link.Image, seed uint64) *Mutant {
	sites := walk(img)
	type cand struct{ add, icall site }
	var cands []cand
	for i := 0; i+1 < len(sites); i++ {
		add, ic := sites[i], sites[i+1]
		if ic.in.Op == asm.OpICall && add.in.Op == asm.OpAddRI &&
			add.in.Dst == ic.in.Src && add.in.Imm == 8 &&
			add.off+add.n == ic.off {
			cands = append(cands, cand{add, ic})
		}
	}
	if len(cands) == 0 {
		return nil
	}
	c := cands[pick(seed, len(cands))]
	m := mutate(img, func(code []byte) {
		nopOut(code, c.add.off, c.add.n)
	})
	return &Mutant{Image: m, MutOff: c.add.off, WantOffs: []int{c.icall.off},
		WantMsg: "icall check idiom malformed"}
}

// retToPlain rewrites a pop into a plain ret — the classic CFI bypass:
// returning through an unchecked address.
func retToPlain(img *link.Image, seed uint64) *Mutant {
	var cands []site
	for _, s := range walk(img) {
		if s.in.Op == asm.OpPop {
			cands = append(cands, s)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	c := cands[pick(seed, len(cands))]
	m := mutate(img, func(code []byte) {
		code[c.off] = byte(asm.OpRet)
	})
	return &Mutant{Image: m, MutOff: c.off, WantOffs: []int{c.off},
		WantMsg: "plain ret is forbidden"}
}

// strayMagicInject writes an MRet magic word into inter-function nop
// padding: a return-site word no call legitimizes, usable as a forged
// CFI landing pad.
func strayMagicInject(img *link.Image, seed uint64) *Mutant {
	type gap struct{ off int }
	var cands []gap
	funcs := append([]*link.FuncSym{}, img.Funcs...)
	sort.Slice(funcs, func(i, j int) bool { return funcs[i].Base < funcs[j].Base })
	for i := 0; i+1 < len(funcs); i++ {
		// Alignment padding between one function's end and the next one's
		// magic word. The word is written at the gap's start and needs at
		// least one trailing padding nop after it: the byte after the word
		// must decode as a nop, never as an exit (which would legitimize
		// the stray word as an exit shim).
		end := int(funcs[i].Base-img.Layout.CodeBase) + int(funcs[i].Size)
		next := int(funcs[i+1].Base - img.Layout.CodeBase)
		if next-end >= 9 {
			cands = append(cands, gap{end})
		}
	}
	if len(cands) == 0 {
		return nil
	}
	c := cands[pick(seed, len(cands))]
	m := mutate(img, func(code []byte) {
		binary.LittleEndian.PutUint64(code[c.off:], img.MRetPrefix|1)
	})
	return &Mutant{Image: m, MutOff: c.off, WantOffs: []int{c.off},
		WantMsg: "stray MRet magic word"}
}

// syscallInject overwrites a reachable one-byte instruction (the
// prologue chksp) with a syscall.
func syscallInject(img *link.Image, seed uint64) *Mutant {
	c := pickChkSP(img, seed)
	if c == nil {
		return nil
	}
	m := mutate(img, func(code []byte) {
		code[c.off] = byte(asm.OpSyscall)
	})
	return &Mutant{Image: m, MutOff: c.off, WantOffs: []int{c.off},
		WantMsg: "syscall in untrusted code"}
}

// wrgsInject overwrites a reachable instruction with a segment-register
// write (re-basing GS would move the private region).
func wrgsInject(img *link.Image, seed uint64) *Mutant {
	c := pickChkSP(img, seed)
	if c == nil {
		return nil
	}
	m := mutate(img, func(code []byte) {
		code[c.off] = byte(asm.OpWrGS)
	})
	return &Mutant{Image: m, MutOff: c.off, WantOffs: []int{c.off},
		WantMsg: "segment register write in untrusted code"}
}

func pickChkSP(img *link.Image, seed uint64) *site {
	var cands []site
	for _, s := range walk(img) {
		if s.in.Op == asm.OpChkSP {
			cands = append(cands, s)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	c := cands[pick(seed, len(cands))]
	return &c
}
