// Package codegen lowers taint-resolved IR to the abstract x64 ISA and
// inserts ConfLLVM's runtime instrumentation:
//
//   - the split public/private stack frame at a compile-time OFFSET (§3);
//   - MPX bound checks with the paper's optimizations — register-operand
//     preference, guard-displacement elision, rsp-check elision under
//     _chkstk discipline, and block-local check coalescing (§5.1);
//   - segment-register addressing with the 32-bit operand constraint (§3);
//   - taint-aware CFI magic sequences on entries, returns and indirect
//     calls (§4).
//
// Every variant runs this one backend, which emits the code a simple -O2
// backend would; the Base vs ConfLLVM difference lies only in the IR
// pass set. Before register allocation, a pre-pass (prepass.go) folds
// block-local constants into register-immediate operands (add r, imm;
// cmp r, imm), folds t = op; d = copy t into d = op when t and d agree on
// taint and float-ness, folds a trunc into the extension that consumes
// it, drops constants left without uses, and fuses a compare whose only
// use is the next condbr into cmp; jcc, keeping setcc only for booleans
// used as values. An add or sub of an immediate whose destination
// register differs from its source lowers to a three-address
// lea d, [a + imm] when the displacement fits in 32 bits; no jcc reads
// the flags an add would have set, since every one follows its own cmp or
// test. Blocks keep their IR order and fall through: a jump to the next
// block is never emitted, a condbr whose true target is next branches on
// the inverted condition to the false target, and a block that emits
// nothing lends its label to the code after it. Loops are rotated by tail
// duplication: a block whose only branch is a backward jmp to a loop test
// of at most three plain instructions ends instead with a copy of that
// test and its branches, so a loop's back edge is a single cmp; jcc. The
// instrumentation above is emitted around the rewritten instructions
// exactly as before: never moved, merged or dropped.
package codegen

import (
	"fmt"

	"confllvm/internal/asm"
	"confllvm/internal/ir"
	"confllvm/internal/regalloc"
	"confllvm/internal/taint"
	"confllvm/internal/types"
)

// Bounds selects the memory-bounds enforcement scheme.
type Bounds uint8

const (
	BoundsNone Bounds = iota
	BoundsMPX
	BoundsSeg
)

// Config selects the instrumentation of one compilation.
type Config struct {
	// CFI enables taint-aware CFI (magic sequences + checked returns and
	// indirect calls).
	CFI bool
	// Bounds selects the region-confinement scheme.
	Bounds Bounds
	// SeparateStacks places private stack data at OFFSET from the public
	// stack. When false (the paper's OurMPX-Sep ablation), the private
	// frame is laid out contiguously after the public frame on the single
	// stack.
	SeparateStacks bool
	// SeparateUT isolates T's memory from U and switches stacks on every
	// U->T transition (false = the paper's Our1Mem ablation).
	SeparateUT bool
	// IgnoreTaint compiles like a vanilla compiler: one stack, no private
	// placement (the Base/BaseOA configurations).
	IgnoreTaint bool
	// ChkStk emits the inlined _chkstk rsp discipline, which also enables
	// eliding bound checks on rsp-relative operands.
	ChkStk bool
	// NoMPXOpt disables the paper's §5.1 MPX optimizations (rsp-check
	// elision and block-local check coalescing) — the ablation baseline.
	NoMPXOpt bool
	// StackOffset is the public->private stack distance (the paper's
	// OFFSET). Must match the loader's layout.
	StackOffset int64
}

// RelKind classifies link-time relocations on emitted items.
type RelKind uint8

const (
	RelNone         RelKind = iota
	RelFunc                 // Imm <- entry address of Sym
	RelFuncPtr              // Imm <- function-pointer value of Sym (magic word addr under CFI, entry otherwise)
	RelGlobal               // Imm <- address of data symbol Sym
	RelBlock                // Imm <- address of local block Blk
	RelTrap                 // Imm <- address of this function's trap site
	RelExtSlot              // Imm <- address of externals-table slot for Sym
	RelRetMagicNot          // Imm <- ^(MRet magic | bits): patched by linker
	RelCallMagicNot         // Imm <- ^(MCall magic | bits): patched by linker
)

// Item is one emitted element: an instruction or an 8-byte magic word.
type Item struct {
	Inst  asm.Inst
	Rel   RelKind
	Sym   string
	Blk   int
	Label int // block id starting at this item, or -1
	// Magic marks this item as an 8-byte magic word (Inst unused).
	Magic     bool
	MagicCall bool  // MCall vs MRet
	MagicBits uint8 // low 5 taint bits
}

// FuncCode is the generated code of one function.
type FuncCode struct {
	Name     string
	Items    []Item
	ArgBits  uint8 // 4 argument taints | ret taint << 4
	RetBit   uint8
	IsStub   bool
	Variadic bool
}

// Module is the code-generation result for all of U.
type Module struct {
	Funcs   []*FuncCode
	Globals []*ir.Global
	// GlobalRegion records the resolved region of each global (true =
	// private).
	GlobalRegion map[string]bool
	Externs      []string // extern (T) function names, externals-table order
	Config       Config
}

// Gen generates code for the whole module under the given configuration.
func Gen(mod *ir.Module, a *taint.Assignment, conf Config) (*Module, error) {
	out := &Module{
		Globals:      mod.Globals,
		GlobalRegion: map[string]bool{},
		Config:       conf,
	}
	for _, g := range mod.Globals {
		private := !conf.IgnoreTaint && a.IsPrivate(g.Type.Qual)
		out.GlobalRegion[g.Name] = private
	}
	extIndex := map[string]int{}
	for _, f := range mod.Funcs {
		if f.Extern {
			extIndex[f.Name] = len(out.Externs)
			out.Externs = append(out.Externs, f.Name)
		}
	}
	for _, f := range mod.Funcs {
		if f.Extern {
			out.Funcs = append(out.Funcs, genStub(f, a, conf, extIndex[f.Name]))
			continue
		}
		if f.Blocks == nil {
			return nil, fmt.Errorf("codegen: function %s declared but never defined", f.Name)
		}
		fc, err := genFunc(mod, f, a, conf)
		if err != nil {
			return nil, err
		}
		out.Funcs = append(out.Funcs, fc)
	}
	return out, nil
}

// argBits computes the 5 CFI taint bits for a function signature:
// bit i (i<4) = taint of argument register i, bit 4 = taint of the return
// register. Unused argument registers are conservatively private (§4).
func argBits(f *ir.Func, a *taint.Assignment, conf Config) uint8 {
	if conf.IgnoreTaint {
		return 0
	}
	var bits uint8
	for i := 0; i < 4; i++ {
		private := true // unused arg registers are conservatively private
		if !f.Variadic && i < len(f.Params) {
			private = a.IsPrivate(f.Params[i].Qual)
		}
		if private {
			bits |= 1 << i
		}
	}
	if retBit(f, a) == 1 {
		bits |= 1 << 4
	}
	return bits
}

func retBit(f *ir.Func, a *taint.Assignment) uint8 {
	if f.Ret == nil || f.Ret.Kind == types.Void {
		return 1 // dead return register: conservatively private
	}
	if a.IsPrivate(f.Ret.Qual) {
		return 1
	}
	return 0
}

// genStub generates the U-side stub for an extern T function: a magic-
// prefixed entry that jumps through the externals table (§6).
func genStub(f *ir.Func, a *taint.Assignment, conf Config, slot int) *FuncCode {
	fc := &FuncCode{Name: f.Name, IsStub: true, Variadic: f.Variadic}
	fc.ArgBits = argBits(f, a, conf)
	fc.RetBit = retBit(f, a)
	if conf.CFI {
		fc.Items = append(fc.Items, Item{Magic: true, MagicCall: true, MagicBits: fc.ArgBits, Label: -1})
	}
	// mov r11, &externals[slot] ; load r11, [r11] ; jmp r11
	fc.emit(asm.Inst{Op: asm.OpMovRI, Dst: regalloc.ScratchB}, RelExtSlot, f.Name)
	mem := asm.Mem{Base: regalloc.ScratchB, Index: asm.NoReg, Size: 8}
	if conf.Bounds == BoundsSeg {
		mem.Seg = asm.SegFS
		mem.Use32 = true
	}
	fc.emit(asm.Inst{Op: asm.OpLoad, Dst: regalloc.ScratchB, M: mem}, RelNone, "")
	fc.emit(asm.Inst{Op: asm.OpJmpR, Src: regalloc.ScratchB}, RelNone, "")
	return fc
}

func (fc *FuncCode) emit(in asm.Inst, rel RelKind, sym string) {
	fc.Items = append(fc.Items, Item{Inst: in, Rel: rel, Sym: sym, Label: -1})
}

// ctx is the per-function emission context.
type ctx struct {
	mod  *ir.Module
	f    *ir.Func
	a    *taint.Assignment
	conf Config
	ra   *regalloc.Result
	fc   *FuncCode

	frameSize    int
	outArgBytes  int
	pubSpillOff  int
	privSpillOff int
	pubAllocaOff map[*ir.Alloca]int
	privBase     int64 // displacement from rsp to the private frame
	numSaved     int

	// coalescing state for MPX checks: keys of checks already emitted in
	// the current basic block.
	checked map[checkKey]bool

	// flags is the condition of the last flags-only compare, for the
	// fused condbr that follows it; flagsFloat marks an fcmp.
	flags      asm.Cond
	flagsFloat bool
	// term collects the current block's body range and terminator.
	term blockCode
}

type checkKey struct {
	reg asm.Reg
	bnd asm.Bnd
}

func genFunc(mod *ir.Module, f *ir.Func, a *taint.Assignment, conf Config) (*FuncCode, error) {
	isPrivate := func(v ir.Value) bool {
		if conf.IgnoreTaint {
			return false
		}
		t := f.ValueType(v)
		return t != nil && a.IsPrivate(t.Qual)
	}
	isFloat := func(v ir.Value) bool {
		t := f.ValueType(v)
		return t != nil && t.Kind == types.Float
	}
	f = prepass(f, isPrivate, isFloat)
	ra := regalloc.Allocate(f, isPrivate, isFloat)

	// Lowering emits about two items per IR instruction (more under
	// bounds checking), plus the prologue, epilogues and magic words.
	irInsts := 0
	for _, blk := range f.Blocks {
		irInsts += len(blk.Insts)
	}
	c := &ctx{
		mod: mod, f: f, a: a, conf: conf, ra: ra,
		fc: &FuncCode{Name: f.Name, Variadic: f.Variadic,
			Items: make([]Item, 0, 2*irInsts+16)},
		pubAllocaOff: map[*ir.Alloca]int{},
		checked:      map[checkKey]bool{},
	}
	c.fc.ArgBits = argBits(f, a, conf)
	c.fc.RetBit = retBit(f, a)
	c.numSaved = len(ra.UsedCalleeSaved)

	c.layoutFrame()

	if conf.CFI {
		c.fc.Items = append(c.fc.Items, Item{Magic: true, MagicCall: true,
			MagicBits: c.fc.ArgBits, Label: -1})
	}
	c.prologue()
	blocks := make([]blockCode, len(f.Blocks))
	for i, blk := range f.Blocks {
		clear(c.checked)
		c.term = blockCode{start: len(c.fc.Items)}
		for _, in := range blk.Insts {
			if err := c.lower(in); err != nil {
				return nil, fmt.Errorf("codegen %s: %w", f.Name, err)
			}
		}
		c.term.end = len(c.fc.Items)
		blocks[i] = c.term
	}
	c.layoutBlocks(blocks)
	if conf.CFI {
		// Shared trap site.
		trapIdx := len(c.fc.Items)
		c.emit(asm.Inst{Op: asm.OpTrap})
		c.fc.Items[trapIdx].Label = trapLabel
	}
	return c.fc, nil
}

// blockCode is one lowered block awaiting layout: its body items, and the
// branch that ends it when that is a br or condbr (a ret's epilogue is
// part of the body).
type blockCode struct {
	start, end int      // body items in FuncCode.Items
	br         *ir.Inst // OpBr / OpCondBr terminator, or nil
	cond       asm.Cond // condbr: the condition that selects br.Blk
	// invertible reports whether the condbr may branch on cond's negation
	// instead; false only for a fused fcmp.
	invertible bool
	// dup is the loop header's body that layoutBlocks copies in place of
	// a backward jmp (loop rotation), ahead of jumps.
	dup []Item
	// jumps are the branch items layoutBlocks chose, held in jumpBuf.
	jumps   []Item
	jumpBuf [2]Item
}

// layoutBlocks appends each block's branches to its body, in IR block
// order, and labels the blocks. A branch to the code that follows is
// left out: a br to the next block emits nothing, and a condbr whose
// true target is next branches on the inverted condition to the false
// target. A block that ends up with no items at all takes no label;
// branches to it go to the block whose code follows it instead.
//
// Loops are rotated by tail duplication: when a block's only branch is a
// backward jmp to a short loop test (rotatable), the jmp is replaced by a
// copy of the test's body and the test's own branches, chosen against the
// code after the jumping block. A for latch thus ends in cmp; jcc body and
// falls into the exit, while the header stays where it is for the loop
// entry. Forward jmps are never duplicated.
//
// The blocks are visited backwards, so when a block's branches are
// chosen, every later block is already known to be empty or not.
func (c *ctx) layoutBlocks(blocks []blockCode) {
	if len(blocks) == 0 {
		return
	}
	maxID := 0
	for i, blk := range c.f.Blocks {
		maxID = max(maxID, blk.ID)
		if br := blocks[i].br; br != nil {
			maxID = max(maxID, br.Blk, br.Blk2) // link reports a dangling target
		}
	}
	alias := make([]int, maxID+1) // block id -> id of the block whose code it starts at
	for i := range alias {
		alias[i] = i
	}
	layoutIdx := make([]int, maxID+1) // block id -> index in blocks
	for i := range layoutIdx {
		layoutIdx[i] = len(blocks) // a dangling target is never backward
	}
	for i, blk := range c.f.Blocks {
		layoutIdx[blk.ID] = i
	}
	body := c.fc.Items
	next := -1 // block whose code follows the current one
	for i := len(blocks) - 1; i >= 0; i-- {
		bc := &blocks[i]
		bc.jumps = branches(bc, alias, next, bc.jumpBuf[:0])
		if len(bc.jumps) == 1 && bc.jumps[0].Inst.Op == asm.OpJmp && bc.jumps[0].Blk >= 0 {
			// A target not yet laid out still has its own id.
			if h := layoutIdx[bc.jumps[0].Blk]; h <= i && rotatable(&blocks[h], body) {
				bc.dup = body[blocks[h].start:blocks[h].end]
				bc.jumps = branches(&blocks[h], alias, next, bc.jumpBuf[:0])
			}
		}
		id := c.f.Blocks[i].ID
		if bc.end > bc.start || len(bc.dup) > 0 || len(bc.jumps) > 0 {
			next = id
		}
		alias[id] = next
	}

	items := make([]Item, 0, len(body)+4*len(blocks)+1)
	items = append(items, body[:blocks[0].start]...)
	for i, bc := range blocks {
		first := len(items)
		items = append(items, body[bc.start:bc.end]...)
		items = append(items, bc.dup...)
		items = append(items, bc.jumps...)
		if len(items) > first {
			items[first].Label = c.f.Blocks[i].ID
		}
	}
	for i := range items {
		if items[i].Rel == RelBlock {
			items[i].Blk = alias[items[i].Blk]
		}
	}
	c.fc.Items = items
}

// maxRotateItems bounds the loop-test body that rotation duplicates.
const maxRotateItems = 3

// rotatable reports whether a backward jmp to block h may be replaced by a
// copy of h: h ends in a condbr, and its body is a short run of plain
// instructions with no magic word, label, call, return or jump, so the
// copy needs no instrumentation of its own and leaves none out.
func rotatable(h *blockCode, body []Item) bool {
	if h.br == nil || h.br.Op != ir.OpCondBr || h.end-h.start > maxRotateItems {
		return false
	}
	for _, it := range body[h.start:h.end] {
		if it.Magic || it.Label != -1 {
			return false
		}
		switch it.Inst.Op {
		case asm.OpCall, asm.OpICall, asm.OpRet, asm.OpJmp, asm.OpJcc, asm.OpJmpR:
			return false
		}
	}
	return true
}

// branches appends to buf the jump items that end block bc, given the
// block whose code follows it. A target not yet laid out (a backward or
// self branch) never follows bc, so its unresolved id is safe to compare.
func branches(bc *blockCode, alias []int, next int, buf []Item) []Item {
	if bc.br == nil {
		return buf
	}
	jmp := func(blk int) Item {
		return Item{Inst: asm.Inst{Op: asm.OpJmp}, Rel: RelBlock, Blk: blk, Label: -1}
	}
	jcc := func(cond asm.Cond, blk int) Item {
		return Item{Inst: asm.Inst{Op: asm.OpJcc, Cond: cond}, Rel: RelBlock, Blk: blk, Label: -1}
	}
	t := alias[bc.br.Blk]
	if bc.br.Op == ir.OpBr {
		if t == next {
			return buf
		}
		return append(buf, jmp(t))
	}
	f := alias[bc.br.Blk2]
	switch {
	case t == f && t == next:
		return buf
	case t == f:
		return append(buf, jmp(t))
	case f == next:
		return append(buf, jcc(bc.cond, t))
	case t == next && bc.invertible:
		return append(buf, jcc(bc.cond.Negate(), f))
	}
	return append(buf, jcc(bc.cond, t), jmp(f))
}

// trapLabel is the pseudo block id of the function's trap site.
const trapLabel = -2

// layoutFrame assigns frame offsets.
//
// Public frame (from rsp upward):
//
//	[0, outArgBytes)            outgoing argument slots
//	[outArgBytes, +pubSpills*8) public spill slots
//	[.., ..)                    public allocas
//
// The private frame mirrors the structure at c.privBase (OFFSET when
// stacks are separated, directly after the public frame otherwise).
func (c *ctx) layoutFrame() {
	maxArgs := c.ra.MaxCallArgs
	out := maxArgs * 8
	if c.ra.HasCall && out < 4*8 {
		out = 4 * 8 // room for spilling argument staging
	}
	c.outArgBytes = out
	c.pubSpillOff = out
	c.privSpillOff = out

	pub := out + c.ra.PubSlots*8
	// Allocas: assign offsets per region.
	priv := out + c.ra.PrivSlots*8
	for _, al := range c.f.Allocas {
		sz := al.Type.SizeOf()
		alg := al.Type.Align()
		if alg < 1 {
			alg = 1
		}
		if c.allocaPrivate(al) {
			priv = alignUp(priv, alg)
			al.FrameOff = priv
			priv += sz
		} else {
			pub = alignUp(pub, alg)
			al.FrameOff = pub
			pub += sz
		}
	}
	pub = alignUp(pub, 8)
	priv = alignUp(priv, 8)

	if c.conf.IgnoreTaint {
		c.frameSize = pub
		c.privBase = 0
		return
	}
	if c.conf.SeparateStacks {
		c.privBase = c.conf.StackOffset
		c.frameSize = pub
		if priv > pub {
			c.frameSize = priv
		}
	} else {
		// Single-stack ablation: the private frame sits right after the
		// public frame.
		c.privBase = int64(pub)
		c.frameSize = pub + priv
	}
}

func alignUp(n, a int) int { return (n + a - 1) / a * a }

// allocaPrivate reports whether an alloca lives on the private stack.
func (c *ctx) allocaPrivate(al *ir.Alloca) bool {
	if c.conf.IgnoreTaint {
		return false
	}
	return c.a.IsPrivate(al.Type.Qual)
}

func (c *ctx) emit(in asm.Inst) {
	c.fc.Items = append(c.fc.Items, Item{Inst: in, Label: -1})
}

func (c *ctx) emitRel(in asm.Inst, rel RelKind, sym string, blk int) {
	c.fc.Items = append(c.fc.Items, Item{Inst: in, Rel: rel, Sym: sym, Blk: blk, Label: -1})
}

func (c *ctx) prologue() {
	for _, r := range c.ra.UsedCalleeSaved {
		c.emit(asm.Inst{Op: asm.OpPush, Src: r})
	}
	if c.frameSize > 0 {
		c.emit(asm.Inst{Op: asm.OpSubRI, Dst: asm.RSP, Imm: int64(c.frameSize)})
	}
	if c.conf.ChkStk {
		c.emit(asm.Inst{Op: asm.OpChkSP})
	}
	c.moveParamsIn()
}

// incomingArgDisp returns the rsp displacement of incoming stack argument
// slot i (for variadic functions all arguments are stack slots; for fixed
// functions slot i corresponds to argument i+4).
func (c *ctx) incomingArgDisp(slot int) int64 {
	return int64(c.frameSize + 8*c.numSaved + 8 + 8*slot)
}

// moveParamsIn transfers incoming arguments to their allocated locations.
func (c *ctx) moveParamsIn() {
	f := c.f
	if f.Variadic {
		// All parameters arrive on the public stack.
		for i, pv := range f.ParamRegs {
			loc := c.ra.Locs[pv]
			if loc.Kind == regalloc.LocNone {
				continue
			}
			disp := c.incomingArgDisp(i)
			c.loadStackSlotTo(loc, disp, false)
		}
		return
	}
	// Register parameters: parallel-move into locations.
	var moves []move
	for i, pv := range f.ParamRegs {
		if i >= 4 {
			break
		}
		loc := c.ra.Locs[pv]
		if loc.Kind == regalloc.LocNone {
			continue
		}
		moves = append(moves, move{src: asm.ArgRegs[i], dst: loc})
	}
	c.parallelMove(moves)
	// Stack parameters (beyond 4).
	for i := 4; i < len(f.ParamRegs); i++ {
		loc := c.ra.Locs[f.ParamRegs[i]]
		if loc.Kind == regalloc.LocNone {
			continue
		}
		private := !c.conf.IgnoreTaint && c.a.IsPrivate(f.Params[i].Qual)
		disp := c.incomingArgDisp(i - 4)
		c.loadStackSlotTo(loc, disp, private)
	}
}

// loadStackSlotTo loads an 8-byte stack slot at [rsp+disp] (+private frame
// if private) into a location.
func (c *ctx) loadStackSlotTo(loc regalloc.Loc, disp int64, private bool) {
	mem := c.stackOperand(disp, 8, private)
	switch loc.Kind {
	case regalloc.LocReg:
		c.emit(asm.Inst{Op: asm.OpLoad, Dst: loc.Reg, M: mem})
	case regalloc.LocFReg:
		c.emit(asm.Inst{Op: asm.OpFLoad, FDst: loc.FReg, M: mem})
	case regalloc.LocSlot:
		c.emit(asm.Inst{Op: asm.OpLoad, Dst: regalloc.ScratchA, M: mem})
		c.storeLoc(loc, regalloc.ScratchA)
	}
}

// stackOperand builds an rsp-relative memory operand in the region
// selected by private, applying the active scheme's addressing.
func (c *ctx) stackOperand(disp int64, size uint8, private bool) asm.Mem {
	m := asm.Mem{Base: asm.RSP, Index: asm.NoReg, Size: size}
	if private && !c.conf.IgnoreTaint {
		if c.conf.Bounds == BoundsSeg && c.conf.SeparateStacks {
			// gs:[esp+disp]: the private stack sits at the same offset
			// within the private segment.
			m.Seg = asm.SegGS
			m.Use32 = true
			m.Disp = int32(disp)
			return m
		}
		m.Disp = int32(disp + c.privBase)
		if c.conf.Bounds == BoundsSeg {
			m.Seg = asm.SegFS // single-stack ablation under seg
			m.Use32 = true
		}
		return m
	}
	if c.conf.Bounds == BoundsSeg {
		m.Seg = asm.SegFS
		m.Use32 = true
	}
	m.Disp = int32(disp)
	return m
}

// move is one element of a parallel register move.
type move struct {
	src asm.Reg
	dst regalloc.Loc
}

// parallelMove performs moves whose sources are registers, respecting
// conflicts (a destination register that is still a pending source is
// deferred; cycles break through ScratchA).
func (c *ctx) parallelMove(moves []move) {
	pending := append([]move{}, moves...)
	for len(pending) > 0 {
		progress := false
		for i, m := range pending {
			if m.dst.Kind == regalloc.LocReg && m.dst.Reg == m.src {
				pending = append(pending[:i], pending[i+1:]...)
				progress = true
				break
			}
			// Is dst a source of another pending move?
			blocked := false
			if m.dst.Kind == regalloc.LocReg {
				for j, o := range pending {
					if j != i && o.src == m.dst.Reg {
						blocked = true
						break
					}
				}
			}
			if blocked {
				continue
			}
			c.storeLoc(m.dst, m.src)
			pending = append(pending[:i], pending[i+1:]...)
			progress = true
			break
		}
		if !progress {
			// Cycle: rotate through ScratchA.
			m := pending[0]
			c.emit(asm.Inst{Op: asm.OpMovRR, Dst: regalloc.ScratchA, Src: m.src})
			pending[0].src = regalloc.ScratchA
		}
	}
}

// storeLoc writes a register's value into a location.
func (c *ctx) storeLoc(loc regalloc.Loc, src asm.Reg) {
	switch loc.Kind {
	case regalloc.LocReg:
		if loc.Reg != src {
			c.emit(asm.Inst{Op: asm.OpMovRR, Dst: loc.Reg, Src: src})
		}
	case regalloc.LocFReg:
		c.emit(asm.Inst{Op: asm.OpMovQIF, FDst: loc.FReg, Src: src})
	case regalloc.LocSlot:
		m := c.spillOperand(loc)
		c.emit(asm.Inst{Op: asm.OpStore, M: m, Src: src})
	}
}

// spillOperand builds the memory operand of a spill slot.
func (c *ctx) spillOperand(loc regalloc.Loc) asm.Mem {
	var disp int64
	if loc.Private {
		disp = int64(c.privSpillOff + loc.Slot*8)
	} else {
		disp = int64(c.pubSpillOff + loc.Slot*8)
	}
	return c.stackOperand(disp, 8, loc.Private)
}

// epilogue emits the frame teardown and the configured return sequence.
func (c *ctx) epilogue() {
	if c.frameSize > 0 {
		c.emit(asm.Inst{Op: asm.OpAddRI, Dst: asm.RSP, Imm: int64(c.frameSize)})
	}
	for i := len(c.ra.UsedCalleeSaved) - 1; i >= 0; i-- {
		c.emit(asm.Inst{Op: asm.OpPop, Dst: c.ra.UsedCalleeSaved[i]})
	}
	if !c.conf.CFI {
		c.emit(asm.Inst{Op: asm.OpRet})
		return
	}
	// Taint-aware CFI return (§4):
	//   pop r10
	//   mov r11, ^(MRet|retbit)   ; bitwise-negated magic (linker-patched)
	//   not r11
	//   cmp [r10], r11
	//   jne trap
	//   add r10, 8
	//   jmp r10
	c.emit(asm.Inst{Op: asm.OpPop, Dst: regalloc.ScratchA})
	c.emitRel(asm.Inst{Op: asm.OpMovRI, Dst: regalloc.ScratchB, Imm: int64(c.fc.RetBit)},
		RelRetMagicNot, "", 0)
	c.emit(asm.Inst{Op: asm.OpNot, Dst: regalloc.ScratchB})
	c.emit(asm.Inst{Op: asm.OpCmpMR, M: asm.Mem{Base: regalloc.ScratchA, Index: asm.NoReg, Size: 8},
		Src: regalloc.ScratchB})
	c.emitRel(asm.Inst{Op: asm.OpJcc, Cond: asm.CondNE}, RelTrap, "", 0)
	c.emit(asm.Inst{Op: asm.OpAddRI, Dst: regalloc.ScratchA, Imm: 8})
	c.emit(asm.Inst{Op: asm.OpJmpR, Src: regalloc.ScratchA})
}
