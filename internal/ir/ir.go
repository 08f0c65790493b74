// Package ir defines ConfLLVM's typed intermediate representation: a
// CFG of basic blocks over mutable virtual registers (machine-IR style,
// no SSA/phi nodes). Every virtual register carries a qualified type whose
// confidentiality qualifier may still be an inference variable; the taint
// package resolves those and the code generator consumes the result.
//
// Every per-op fact lives in one table, opTable: the mnemonic, the class
// (which decides how opt folds, CSEs and keeps the op, which taint
// constraint it adds and which lowering routine codegen runs) and the
// flags has-result, may-fault and commutative. Adding an op takes:
//
//  1. the constant, in the section of its class;
//  2. one opTable row;
//  3. whatever Inst fields the op reads, documented at the constant (a
//     div or mod reads its signedness and width from Ty, not from Res's
//     type, so a pass may retype the result without changing the
//     division, and an inttofp its source's);
//  4. for an integer binop, an evaluation in opt's foldBin, and a case in
//     irgen's needsNormalize if it can carry a narrow result out of its
//     type's range (opt's truncElim treats an op it does not know as
//     reading its operands' high bits, which is always safe);
//  5. its ir-to-asm entries in codegen (intBinOps and intImmOps for an
//     integer binop, fltBinOps for a float one), or a case in lower for
//     the other classes;
//  6. a case in taint's collectInst only if it is in a new class, which
//     collectInst rejects until it has one.
package ir

import (
	"fmt"
	"strings"

	"confllvm/internal/minic"
	"confllvm/internal/types"
)

// Value is a virtual register id. NoValue marks "no result".
type Value int32

// NoValue is the absent value.
const NoValue Value = -1

// Op is an IR operation.
type Op uint8

const (
	OpInvalid Op = iota

	OpConst  // Res = Imm (typed by Ty)
	OpFConst // Res = FImm

	// Integer arithmetic: Res = Args[0] op Args[1]. Div and mod divide
	// by Ty's signedness and width.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr // logical
	OpSar // arithmetic

	// Float arithmetic.
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv

	// Comparisons: Res (int) = Args[0] pred Args[1].
	OpICmp
	OpFCmp

	// Memory. Ty is the accessed element type; its Qual is the memory
	// operand's taint (what the runtime checks enforce).
	OpLoad  // Res = *(Ty*)Args[0]
	OpStore // *(Ty*)Args[0] = Args[1]

	// Address producers.
	OpAddrOf     // Res = &alloca (A)
	OpGlobalAddr // Res = &global (Global)
	OpFuncAddr   // Res = &func (Global)

	// Calls.
	OpCall  // Res = Callee(Args...); Res may be NoValue
	OpICall // Res = (*Args[0])(Args[1:]...)

	// Conversions. Res type is Ty, except that inttofp converts Args[0]
	// as an integer of type Ty (its width and signedness, whatever
	// Args[0]'s type says: irgen reuses the vreg across a conversion
	// between integer types of one width) to a double.
	//
	// An integer register holds its C type's canonical 64-bit value
	// wherever its high bits (those above the type's width) are read: a
	// value of a type narrower than 8 bytes is sign-extended from its
	// width when the type is signed and zero-extended when it is not.
	// OpTrunc is the one op that establishes that form: it reduces
	// Args[0] modulo 2^(8*Ty.Size) and re-extends it per Ty's
	// signedness (an 8-byte Ty keeps the value). Converting to a type
	// that holds every value of the source is therefore free, and the IR
	// has no extension ops. irgen emits a trunc after every narrow op
	// that can leave the range; opt turns each one whose high bits
	// nothing reads into a copy, so between a value's def and its uses
	// that only read its low bits (add, sub, mul, and, or, xor, shl,
	// narrowing truncs, copies and stores no wider than the value; see
	// opt's readsHighBits) the register may hold other high bits.
	OpTrunc
	OpBitcast // pointer/int reinterpretation, same size
	OpIntToFP
	OpFPToInt

	// Copy: Res = Args[0] (assignment to a promoted local).
	OpCopy

	// Varargs support.
	OpVaStart // Res = pointer to first variadic incoming slot

	// Terminators.
	OpBr     // unconditional branch to Blk
	OpCondBr // if Args[0] != 0 goto Blk else Blk2
	OpRet    // return Args[0] (optional)

	numOps
)

// Pred is a comparison predicate for OpICmp/OpFCmp.
type Pred uint8

const (
	PredEQ Pred = iota
	PredNE
	PredSLT
	PredSLE
	PredSGT
	PredSGE
	PredULT
	PredULE
	PredUGT
	PredUGE
)

var predNames = [...]string{"eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge"}

func (p Pred) String() string { return predNames[p] }

// Class groups the ops that the passes treat alike: a pass switches on an
// op's class, and on the op itself only where ops of one class differ.
type Class uint8

const (
	ClassInvalid    Class = iota
	ClassConst            // const, fconst: no operands
	ClassIntBin           // Res = Args[0] op Args[1] over integers
	ClassFloatBin         // Res = Args[0] op Args[1] over doubles
	ClassCompare          // icmp, fcmp: Res (int) = Args[0] pred Args[1]
	ClassMemory           // load, store
	ClassAddress          // addrof, gaddr, faddr, vastart: a pointer from no operand
	ClassCall             // call, icall
	ClassConversion       // trunc, bitcast, inttofp, fptoint: Res = Args[0] as Ty
	ClassCopy             // copy
	ClassTerminator       // br, condbr, ret: the last instruction of a block
)

// Per-op flags: the op defines a virtual register (a void call still
// carries Res == NoValue); it may trap (#DE on a zero divisor or
// INT64_MIN / -1), so it stays even when its result is unused; its
// operands may be swapped.
const (
	hasResult uint8 = 1 << iota
	mayFault
	commutative
)

// opInfo is one row of the op table.
type opInfo struct {
	name  string // mnemonic
	class Class
	flags uint8
}

// opTable holds every per-op fact of the IR. The printer, opt's folding,
// CSE and DCE, taint's constraint collection and codegen's lowering all
// read it rather than listing ops.
var opTable = [numOps]opInfo{
	OpConst: {"const", ClassConst, hasResult}, OpFConst: {"fconst", ClassConst, hasResult},

	OpAdd: {"add", ClassIntBin, hasResult | commutative}, OpSub: {"sub", ClassIntBin, hasResult},
	OpMul: {"mul", ClassIntBin, hasResult | commutative},
	OpDiv: {"div", ClassIntBin, hasResult | mayFault}, OpMod: {"mod", ClassIntBin, hasResult | mayFault},
	OpAnd: {"and", ClassIntBin, hasResult | commutative}, OpOr: {"or", ClassIntBin, hasResult | commutative},
	OpXor: {"xor", ClassIntBin, hasResult | commutative}, OpShl: {"shl", ClassIntBin, hasResult},
	OpShr: {"shr", ClassIntBin, hasResult}, OpSar: {"sar", ClassIntBin, hasResult},

	OpFAdd: {"fadd", ClassFloatBin, hasResult}, OpFSub: {"fsub", ClassFloatBin, hasResult},
	OpFMul: {"fmul", ClassFloatBin, hasResult}, OpFDiv: {"fdiv", ClassFloatBin, hasResult},
	OpICmp: {"icmp", ClassCompare, hasResult}, OpFCmp: {"fcmp", ClassCompare, hasResult},
	OpLoad: {"load", ClassMemory, hasResult}, OpStore: {"store", ClassMemory, 0},

	OpAddrOf: {"addrof", ClassAddress, hasResult}, OpGlobalAddr: {"gaddr", ClassAddress, hasResult},
	OpFuncAddr: {"faddr", ClassAddress, hasResult}, OpVaStart: {"vastart", ClassAddress, hasResult},
	OpCall: {"call", ClassCall, hasResult}, OpICall: {"icall", ClassCall, hasResult},

	OpTrunc: {"trunc", ClassConversion, hasResult}, OpBitcast: {"bitcast", ClassConversion, hasResult},
	OpIntToFP: {"inttofp", ClassConversion, hasResult}, OpFPToInt: {"fptoint", ClassConversion, hasResult},
	OpCopy: {"copy", ClassCopy, hasResult},

	OpBr: {"br", ClassTerminator, 0}, OpCondBr: {"condbr", ClassTerminator, 0}, OpRet: {"ret", ClassTerminator, 0},
}

// row returns o's table row, which is empty for an undefined op.
func (o Op) row() opInfo {
	if o < numOps {
		return opTable[o]
	}
	return opInfo{}
}

func (o Op) String() string {
	if name := o.row().name; name != "" {
		return name
	}
	return fmt.Sprintf("op?%d", uint8(o))
}

// Class returns o's class (ClassInvalid for an undefined op).
func (o Op) Class() Class { return o.row().class }

// HasResult reports whether the op defines a virtual register.
func (o Op) HasResult() bool { return o.row().flags&hasResult != 0 }

// IsTerminator reports whether the op ends a basic block.
func (o Op) IsTerminator() bool { return o.Class() == ClassTerminator }

// MayFault reports whether the op can trap: div and mod.
func (o Op) MayFault() bool { return o.row().flags&mayFault != 0 }

// Commutative reports whether the op's operands may be swapped.
func (o Op) Commutative() bool { return o.row().flags&commutative != 0 }

// Inst is one IR instruction.
type Inst struct {
	Op   Op
	Res  Value
	Args []Value
	Imm  int64
	FImm float64
	// Ty is the element type (load/store), the target type
	// (casts/const) or the operation type (div/mod: the signedness and
	// width the division divides by, whatever Res's type; inttofp: the
	// integer type it converts from, whatever Args[0]'s type).
	Ty     *types.Type
	Pred   Pred
	A      *Alloca
	Global string // global or function symbol
	Callee string // direct call target
	Blk    int    // branch target
	Blk2   int    // false branch target
	Pos    minic.Pos
}

// Alloca is a stack object.
type Alloca struct {
	Name string
	Type *types.Type // object type; Qual decides private/public stack
	// FrameOff is assigned by the code generator.
	FrameOff int
}

// Block is a basic block. The last instruction is the terminator.
type Block struct {
	ID    int
	Insts []*Inst
}

// Succs returns the successor block ids.
func (b *Block) Succs() []int {
	return b.AppendSuccs(nil)
}

// AppendSuccs appends the successor block ids of b's terminator to buf:
// one for a br, two for a condbr, none otherwise. The ids are whatever
// the branch names; a caller that may see a branch to a missing block
// checks each id itself.
func (b *Block) AppendSuccs(buf []int) []int {
	if len(b.Insts) == 0 {
		return buf
	}
	switch t := b.Insts[len(b.Insts)-1]; t.Op {
	case OpBr:
		return append(buf, t.Blk)
	case OpCondBr:
		return append(buf, t.Blk, t.Blk2)
	}
	return buf
}

// Func is an IR function.
type Func struct {
	Name string
	// Sig is the function's one signature, its array parameters already
	// decayed to pointers. Irgen types calls and the function's address
	// by it, taint constrains arguments and returns by it, and codegen
	// derives the CFI taint bits of the entry word and of every call
	// site, and the argument-passing convention, from it.
	Sig       *types.FuncSig
	ParamRegs []Value // vreg holding each incoming parameter
	Extern    bool    // trusted-runtime function (no body, called via stubs)
	Blocks    []*Block
	Allocas   []*Alloca

	valueTypes []*types.Type
	Pos        minic.Pos
}

// NewValue allocates a virtual register of type t.
func (f *Func) NewValue(t *types.Type) Value {
	f.valueTypes = append(f.valueTypes, t)
	return Value(len(f.valueTypes) - 1)
}

// ValueType returns the type of v.
func (f *Func) ValueType(v Value) *types.Type {
	if v == NoValue {
		return nil
	}
	return f.valueTypes[v]
}

// SetValueType overrides the type of v (taint resolution rewrites quals).
func (f *Func) SetValueType(v Value, t *types.Type) { f.valueTypes[v] = t }

// NumValues returns the number of virtual registers.
func (f *Func) NumValues() int { return len(f.valueTypes) }

// NewBlock appends an empty block.
func (f *Func) NewBlock() *Block {
	b := &Block{ID: len(f.Blocks)}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Global is a module-level variable.
type Global struct {
	Name string
	Type *types.Type
	// Data is the initial contents (zero-filled to the type's size).
	Data []byte
	// Relocs list offsets within Data that must be patched with the
	// address of another symbol at link time.
	Relocs []Reloc
	Pos    minic.Pos
}

// Reloc is an address fixup inside a global's initializer.
type Reloc struct {
	Off    int
	Symbol string // global or function name
}

// Module is a compiled translation unit (all of U).
type Module struct {
	Funcs   []*Func
	Globals []*Global

	funcsByName   map[string]*Func
	globalsByName map[string]*Global
}

// NewModule returns an empty module.
func NewModule() *Module {
	return &Module{
		funcsByName:   map[string]*Func{},
		globalsByName: map[string]*Global{},
	}
}

// AddFunc registers a function.
func (m *Module) AddFunc(f *Func) { m.Funcs = append(m.Funcs, f); m.funcsByName[f.Name] = f }

// AddGlobal registers a global.
func (m *Module) AddGlobal(g *Global) {
	m.Globals = append(m.Globals, g)
	m.globalsByName[g.Name] = g
}

// Func looks up a function by name.
func (m *Module) Func(name string) *Func { return m.funcsByName[name] }

// Global looks up a global by name.
func (m *Module) Global(name string) *Global { return m.globalsByName[name] }

// ---- Printer (for tests and debugging) ----

func (in *Inst) String() string {
	var b strings.Builder
	if in.Res != NoValue {
		fmt.Fprintf(&b, "v%d = ", in.Res)
	}
	b.WriteString(in.Op.String())
	if in.Op.Class() == ClassCompare {
		fmt.Fprintf(&b, ".%s", in.Pred)
	}
	switch in.Op {
	case OpConst:
		fmt.Fprintf(&b, " %d", in.Imm)
	case OpFConst:
		fmt.Fprintf(&b, " %g", in.FImm)
	case OpAddrOf:
		fmt.Fprintf(&b, " %s", in.A.Name)
	case OpGlobalAddr, OpFuncAddr:
		fmt.Fprintf(&b, " %s", in.Global)
	case OpCall:
		fmt.Fprintf(&b, " %s", in.Callee)
	case OpBr:
		fmt.Fprintf(&b, " b%d", in.Blk)
	case OpCondBr:
		fmt.Fprintf(&b, " v%d, b%d, b%d", in.Args[0], in.Blk, in.Blk2)
		return b.String()
	}
	for _, a := range in.Args {
		fmt.Fprintf(&b, " v%d", a)
	}
	if in.Ty != nil {
		fmt.Fprintf(&b, " : %s", in.Ty)
	}
	return b.String()
}

// String renders the function for debugging.
func (f *Func) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s(", f.Name)
	for i, p := range f.Sig.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "v%d %s", f.ParamRegs[i], p)
	}
	fmt.Fprintf(&b, ") %s {\n", f.Sig.Ret)
	for _, blk := range f.Blocks {
		fmt.Fprintf(&b, "b%d:\n", blk.ID)
		for _, in := range blk.Insts {
			fmt.Fprintf(&b, "  %s\n", in)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
