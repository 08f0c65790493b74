// Package verify implements ConfVerify (§5.2): an independent static
// verifier that checks a *linked binary* — not the compiler — for the
// instrumentation that guarantees confidentiality. It takes only the code
// bytes, the two magic prefixes and the layout as input:
//
//  1. it locates procedure entries by scanning for the MCall prefix and
//     disassembles each procedure, reconstructing its CFG (decoding
//     failure rejects the binary);
//  2. it re-infers register taints by dataflow, seeding from the magic
//     words' taint bits;
//  3. it checks every memory operand's taint evidence (MPX checks in the
//     same basic block, or segment prefixes with the 32-bit operand
//     constraint), every call/return/indirect-call against the taint-
//     aware CFI discipline, and rejects syscalls, segment-register
//     writes, plain rets, and stray indirect jumps.
//
// Like the paper's ConfVerify, it is vastly simpler than the compiler: no
// register allocation, no optimization — just decoding and a lattice
// dataflow. It verifies the deployable configurations (CFI + MPX or
// segmentation with separated stacks).
//
// Procedures are independent verification units: each is disassembled and
// checked against only the image-wide context (code bytes, magic-word
// table, layout, config), never against another procedure's in-progress
// state. That makes checking streamable — Options.Parallel fans
// procedures over a worker pool with byte-identical output (the reported
// error is always the one the serial verifier would hit first). Every
// Verify call decodes and checks every procedure's bytes: no verdict is
// ever reused from an earlier call. See README.md in this package for the
// invariants.
package verify

import (
	"encoding/binary"
	"fmt"
	"sort"

	"confllvm/internal/asm"
	"confllvm/internal/codegen"
	"confllvm/internal/link"
)

// Options tunes verification.
type Options struct {
	// Strict additionally rejects conditional branches on private flags
	// (implicit-flow-free mode).
	Strict bool
	// Parallel is the number of procedures checked concurrently; values
	// <= 1 select the serial path. The accept/reject verdict, the
	// reported error and Stats are byte-identical for every value.
	Parallel int
}

// Stats summarizes one verification run (all simulated-input quantities,
// identical under any Parallel setting).
type Stats struct {
	// Funcs is the number of procedure entries verified (stubs included).
	Funcs int
	// Stubs counts import stubs among Funcs.
	Stubs int
	// Insts is the total number of instructions decoded and checked.
	Insts int
}

// Error is a verification rejection.
type Error struct {
	Off int // code offset
	Msg string
}

func (e *Error) Error() string {
	return fmt.Sprintf("confverify: offset %#x: %s", e.Off, e.Msg)
}

// Verify checks a linked image. A nil return means the binary carries all
// the instrumentation needed for confidentiality.
func Verify(img *link.Image, opts Options) error {
	_, err := VerifyStats(img, opts)
	return err
}

// VerifyStats is Verify returning throughput counters alongside the
// verdict. Stats is only meaningful when err is nil.
func VerifyStats(img *link.Image, opts Options) (Stats, error) {
	conf := img.Config
	if !conf.CFI {
		return Stats{}, fmt.Errorf("confverify: only CFI-enabled configurations are verifiable")
	}
	if conf.Bounds == codegen.BoundsNone {
		return Stats{}, fmt.Errorf("confverify: configuration carries no bounds enforcement")
	}
	if !conf.SeparateStacks {
		return Stats{}, fmt.Errorf("confverify: single-stack ablation is not a verifiable configuration")
	}
	if conf.Bounds == codegen.BoundsMPX && !conf.ChkStk {
		return Stats{}, fmt.Errorf("confverify: MPX configuration requires the _chkstk discipline")
	}
	v := &verifier{img: img, opts: opts, code: img.Code}
	return v.run()
}

// verifier holds the image-wide context. After scanMagic it is read-only:
// checkOne never mutates it, which is what makes procedures checkable
// concurrently.
type verifier struct {
	img  *link.Image
	opts Options
	code []byte

	mcallOffs map[int]uint64 // offset -> magic word
	mretOffs  map[int]uint64
}

// scanMagic finds every occurrence of the two prefixes at every byte
// offset.
func (v *verifier) scanMagic() {
	v.mcallOffs = map[int]uint64{}
	v.mretOffs = map[int]uint64{}
	for i := 0; i+8 <= len(v.code); i++ {
		w := binary.LittleEndian.Uint64(v.code[i:])
		switch w &^ 31 {
		case v.img.MCallPrefix:
			v.mcallOffs[i] = w
		case v.img.MRetPrefix:
			v.mretOffs[i] = w
		}
	}
}

// inst is a decoded instruction with layout info.
type inst struct {
	asm.Inst
	off  int
	size int
	// leader marks the first instruction of a basic block.
	leader bool
	// retSite is set on calls: the code offset of the following MRet word.
	retSite int
	// Structural-pass annotations.
	icallBits uint8 // expected MCall taint bits at a checked indirect call
	icallOK   bool
	retBit    uint8 // MRet taint bit checked by the return idiom
	retOK     bool
}

// proc is a disassembled procedure.
type proc struct {
	entryOff int // offset of first instruction (magic+8)
	bits     uint8
	insts    []inst // sorted by offset once disassembly completes
	isStub   bool
	// usedRets lists the return-site MRet magic offsets this procedure
	// legitimized (collected per-proc so disassembly never mutates shared
	// verifier state; merged after all procedures pass).
	usedRets []int
}

// find returns the instruction at code offset off, or nil.
func (p *proc) find(off int) *inst {
	i := sort.Search(len(p.insts), func(i int) bool { return p.insts[i].off >= off })
	if i < len(p.insts) && p.insts[i].off == off {
		return &p.insts[i]
	}
	return nil
}

// regsValid reports whether every register field of a decoded instruction
// is in range. asm.Decode does not validate operand bytes, so a corrupted
// image can name register 139; the dataflow pass indexes 16-entry taint
// arrays by these fields and must never see such a value (found by
// FuzzVerifyImage). Unused fields are zero after decoding, which the
// checks below accept.
func regsValid(in *asm.Inst) bool {
	return in.Dst < asm.NumRegs && in.Src < asm.NumRegs &&
		in.FDst < asm.NumFRegs && in.FSrc < asm.NumFRegs &&
		(in.M.Base == asm.NoReg || in.M.Base < asm.NumRegs) &&
		(in.M.Index == asm.NoReg || in.M.Index < asm.NumRegs)
}

// disassemble decodes the procedure whose MCall magic word is at magicOff,
// following intra-procedural control flow. spanEnd, the end of the
// procedure's span, only sizes the buffers.
func (v *verifier) disassemble(magicOff, spanEnd int) (*proc, error) {
	// Instructions average about six bytes; sizing for four-byte ones
	// leaves room for denser code without regrowing.
	hint := (spanEnd - magicOff) / 4
	p := &proc{
		entryOff: magicOff + 8,
		bits:     uint8(v.mcallOffs[magicOff] & 31),
		insts:    make([]inst, 0, hint),
	}
	seen := make(map[int]bool, hint)
	leaders := []int{p.entryOff}

	codeBase := v.img.Layout.CodeBase
	toOff := func(addr uint64) (int, bool) {
		if addr < codeBase {
			return 0, false
		}
		o := int(addr - codeBase)
		return o, o < len(v.code)
	}

	work := []int{p.entryOff}
	for len(work) > 0 {
		off := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[off] {
			continue
		}
		seen[off] = true
		in, n, err := asm.Decode(v.code, off)
		if err != nil {
			return p, &Error{off, "undecodable instruction: " + err.Error()}
		}
		p.insts = append(p.insts, inst{Inst: in, off: off, size: n, retSite: -1})

		switch in.Op {
		case asm.OpRet:
			return p, &Error{off, "plain ret is forbidden under taint-aware CFI"}
		case asm.OpSyscall:
			return p, &Error{off, "syscall in untrusted code"}
		case asm.OpWrFS, asm.OpWrGS:
			return p, &Error{off, "segment register write in untrusted code"}
		}
		// Operand sanity comes after the forbidden-opcode rejections (the
		// opcode is the security-relevant fact) but before anything indexes
		// a register field.
		if !regsValid(&in) {
			return p, &Error{off, "instruction names an out-of-range register"}
		}

		switch in.Op {
		case asm.OpJmp:
			t, ok := toOff(uint64(in.Imm))
			if !ok {
				return p, &Error{off, "jump target outside code"}
			}
			leaders = append(leaders, t)
			work = append(work, t)
		case asm.OpJcc:
			t, ok := toOff(uint64(in.Imm))
			if !ok {
				return p, &Error{off, "jcc target outside code"}
			}
			leaders = append(leaders, t, off+n)
			work = append(work, t, off+n)
		case asm.OpCall, asm.OpICall:
			// The next 8 bytes must be a valid MRet word; execution
			// resumes after it.
			rs := off + n
			if _, ok := v.mretOffs[rs]; !ok {
				return p, &Error{off, "call without a return-site MRet magic word"}
			}
			p.usedRets = append(p.usedRets, rs)
			p.insts[len(p.insts)-1].retSite = rs
			leaders = append(leaders, rs+8)
			work = append(work, rs+8)
			if in.Op == asm.OpCall {
				// Direct call target must be a magic-preceded entry.
				t, ok := toOff(uint64(in.Imm))
				if !ok || t < 8 {
					return p, &Error{off, "call target outside code"}
				}
				if _, isEntry := v.mcallOffs[t-8]; !isEntry {
					return p, &Error{off, "call target is not a procedure entry"}
				}
			}
		case asm.OpJmpR, asm.OpTrap, asm.OpExit:
			// Terminators; validated in the block pass.
		default:
			// Straight-line instruction: fall through.
			work = append(work, off+n)
		}
	}

	// The walk visits fall-through successors first, so the instructions
	// are already nearly in offset order.
	sort.Slice(p.insts, func(i, j int) bool { return p.insts[i].off < p.insts[j].off })
	for _, off := range leaders {
		// Every leader was pushed on the work list, so it was decoded.
		p.find(off).leader = true
	}

	// Stub recognition: exactly mov r11, slot; load r11, [r11]; jmp r11
	// with the slot inside the read-only externals table.
	if len(p.insts) == 3 {
		i0, i1, i2 := &p.insts[0], &p.insts[1], &p.insts[2]
		if i0.Op == asm.OpMovRI && i1.Op == asm.OpLoad && i2.Op == asm.OpJmpR &&
			i1.M.Base == i0.Dst && i2.Src == i1.Dst {
			tbl := v.img.Layout.ExtTableBase()
			slot := uint64(i0.Imm)
			if slot >= tbl && slot < tbl+uint64(8*len(v.img.Externals)) {
				p.isStub = true
				return p, nil
			}
			return p, &Error{i0.off, "stub jumps through an address outside the externals table"}
		}
	}
	return p, nil
}
