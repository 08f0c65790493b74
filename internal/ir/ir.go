// Package ir defines ConfLLVM's typed intermediate representation: a
// CFG of basic blocks over mutable virtual registers (machine-IR style,
// no SSA/phi nodes). Every virtual register carries a qualified type whose
// confidentiality qualifier may still be an inference variable; the taint
// package resolves those and the code generator consumes the result.
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

	// Integer arithmetic: Res = Args[0] op Args[1].
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

	// Conversions. Res type is Ty.
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

var mnemonics = [numOps]string{
	OpConst: "const", OpFConst: "fconst",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpMod: "mod",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr", OpSar: "sar",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpICmp: "icmp", OpFCmp: "fcmp",
	OpLoad: "load", OpStore: "store",
	OpAddrOf: "addrof", OpGlobalAddr: "gaddr", OpFuncAddr: "faddr",
	OpCall: "call", OpICall: "icall",
	OpTrunc: "trunc", OpBitcast: "bitcast",
	OpIntToFP: "inttofp", OpFPToInt: "fptoint",
	OpCopy: "copy", OpVaStart: "vastart",
	OpBr: "br", OpCondBr: "condbr", OpRet: "ret",
}

func (o Op) String() string {
	if int(o) < len(mnemonics) && mnemonics[o] != "" {
		return mnemonics[o]
	}
	return fmt.Sprintf("op?%d", uint8(o))
}

// Inst is one IR instruction.
type Inst struct {
	Op     Op
	Res    Value
	Args   []Value
	Imm    int64
	FImm   float64
	Ty     *types.Type // element type (load/store), target type (casts/const)
	Pred   Pred
	A      *Alloca
	Global string // global or function symbol
	Callee string // direct call target
	Blk    int    // branch target
	Blk2   int    // false branch target
	Pos    minic.Pos
}

// IsTerminator reports whether the instruction ends a basic block.
func (in *Inst) IsTerminator() bool {
	return in.Op == OpBr || in.Op == OpCondBr || in.Op == OpRet
}

// HasResult reports whether the op defines a virtual register. (Calls may
// still carry Res == NoValue for void calls.)
func (o Op) HasResult() bool {
	switch o {
	case OpStore, OpBr, OpCondBr, OpRet:
		return false
	}
	return true
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
	if len(b.Insts) == 0 {
		return nil
	}
	t := b.Insts[len(b.Insts)-1]
	switch t.Op {
	case OpBr:
		return []int{t.Blk}
	case OpCondBr:
		return []int{t.Blk, t.Blk2}
	}
	return nil
}

// Func is an IR function.
type Func struct {
	Name      string
	Params    []*types.Type
	ParamRegs []Value // vreg holding each incoming parameter
	Ret       *types.Type
	Variadic  bool
	Extern    bool // trusted-runtime function (no body, called via stubs)
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

// ---- Printer (for tests and -emit-ir debugging) ----

func (in *Inst) String() string {
	var b strings.Builder
	if in.Res != NoValue {
		fmt.Fprintf(&b, "v%d = ", in.Res)
	}
	b.WriteString(in.Op.String())
	if in.Op == OpICmp || in.Op == OpFCmp {
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
	for i, p := range f.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "v%d %s", f.ParamRegs[i], p)
	}
	fmt.Fprintf(&b, ") %s {\n", f.Ret)
	for _, blk := range f.Blocks {
		fmt.Fprintf(&b, "b%d:\n", blk.ID)
		for _, in := range blk.Insts {
			fmt.Fprintf(&b, "  %s\n", in)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
