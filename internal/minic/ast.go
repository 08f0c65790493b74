package minic

import "confllvm/internal/types"

// File is a parsed translation unit.
type File struct {
	Name    string
	Structs map[string]*types.Type // struct/union tags
	Globals []*VarDecl
	Funcs   []*FuncDecl // definitions and prototypes
}

// FuncDecl is a function prototype or definition.
type FuncDecl struct {
	Pos  Pos
	Name string
	// Sig is the function's type, its array parameters adjusted to
	// pointers (C11 6.7.6.3p7).
	Sig    *types.FuncSig
	Params []Param
	Extern bool   // trusted-runtime (T) function: declared `extern`
	Body   *Block // nil for prototypes
}

// Param is a function parameter as written: its Type is not adjusted.
type Param struct {
	Name string
	Type *types.Type
	Pos  Pos
}

// VarDecl declares a global or local variable.
type VarDecl struct {
	Pos    Pos
	Name   string
	Type   *types.Type
	Init   Expr    // nil if none (scalar init)
	Inits  []Expr  // brace-list initializer elements
	StrVal *string // string-literal initializer for char arrays
	Static bool    // file-scope linkage marker (accepted, not enforced)
}

// ---- Statements ----

// Stmt is implemented by all statement nodes.
type Stmt interface{ stmtNode() }

// Block is a brace-enclosed statement list with its own scope.
type Block struct {
	Pos   Pos
	Stmts []Stmt
}

// DeclStmt declares local variables.
type DeclStmt struct {
	Pos   Pos
	Decls []*VarDecl
}

// ExprStmt evaluates an expression for effect.
type ExprStmt struct {
	Pos Pos
	X   Expr
}

// If is if/else.
type If struct {
	Pos  Pos
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
}

// While is a while loop.
type While struct {
	Pos  Pos
	Cond Expr
	Body Stmt
}

// DoWhile is a do/while loop.
type DoWhile struct {
	Pos  Pos
	Body Stmt
	Cond Expr
}

// For is a for loop. Init may be a DeclStmt or ExprStmt; any part may be nil.
type For struct {
	Pos  Pos
	Init Stmt
	Cond Expr
	Post Expr
	Body Stmt
}

// Return returns from the current function.
type Return struct {
	Pos Pos
	X   Expr // nil for void
}

// Break exits the nearest loop.
type Break struct{ Pos Pos }

// Continue jumps to the nearest loop's next iteration.
type Continue struct{ Pos Pos }

// Empty is a lone semicolon.
type Empty struct{ Pos Pos }

func (*Block) stmtNode()    {}
func (*DeclStmt) stmtNode() {}
func (*ExprStmt) stmtNode() {}
func (*If) stmtNode()       {}
func (*While) stmtNode()    {}
func (*DoWhile) stmtNode()  {}
func (*For) stmtNode()      {}
func (*Return) stmtNode()   {}
func (*Break) stmtNode()    {}
func (*Continue) stmtNode() {}
func (*Empty) stmtNode()    {}

// ---- Expressions ----

// Expr is implemented by all expression nodes.
type Expr interface {
	exprNode()
	Position() Pos
}

// IntLit is an integer (or character) literal.
type IntLit struct {
	Pos Pos
	Val int64
}

// FloatLit is a floating-point literal.
type FloatLit struct {
	Pos Pos
	Val float64
}

// StrLit is a string literal (NUL-terminated in rodata).
type StrLit struct {
	Pos Pos
	Val string
}

// Ident references a variable, parameter or function by name.
type Ident struct {
	Pos  Pos
	Name string
}

// Unary is a prefix operator: - ! ~ * & ++ --.
type Unary struct {
	Pos  Pos
	Op   string
	X    Expr
	Post bool // postfix ++/--
}

// Binary is an infix operator (arithmetic, comparison, logical, shifts).
type Binary struct {
	Pos  Pos
	Op   string
	X, Y Expr
}

// Assign is an assignment, possibly compound (op is "", "+", "-", ...).
type Assign struct {
	Pos Pos
	Op  string
	LHS Expr
	RHS Expr
}

// Cond is the ternary operator.
type Cond struct {
	Pos     Pos
	C, T, F Expr
}

// Call invokes a function: direct if Fn is an Ident naming a function,
// indirect otherwise.
type Call struct {
	Pos  Pos
	Fn   Expr
	Args []Expr
}

// Index is array/pointer subscripting.
type Index struct {
	Pos  Pos
	X, I Expr
}

// Member is field access: x.f or p->f.
type Member struct {
	Pos   Pos
	X     Expr
	Name  string
	Arrow bool
}

// Cast converts X to Type. Pointer casts are unchecked statically — that is
// the point of the runtime region checks.
type Cast struct {
	Pos  Pos
	Type *types.Type
	X    Expr
}

// SizeofType is sizeof(type); sizeof expr is folded by the parser.
type SizeofType struct {
	Pos  Pos
	Type *types.Type
}

// VaStart is the builtin __va_start(): yields a pointer to the first
// variadic argument slot of the current function.
type VaStart struct{ Pos Pos }

// VaArg is the builtin __va_arg(ap, type): reads the next variadic argument
// through ap (a char** cursor) and advances it.
type VaArg struct {
	Pos  Pos
	Ap   Expr
	Type *types.Type
}

func (*IntLit) exprNode()     {}
func (*FloatLit) exprNode()   {}
func (*StrLit) exprNode()     {}
func (*Ident) exprNode()      {}
func (*Unary) exprNode()      {}
func (*Binary) exprNode()     {}
func (*Assign) exprNode()     {}
func (*Cond) exprNode()       {}
func (*Call) exprNode()       {}
func (*Index) exprNode()      {}
func (*Member) exprNode()     {}
func (*Cast) exprNode()       {}
func (*SizeofType) exprNode() {}
func (*VaStart) exprNode()    {}
func (*VaArg) exprNode()      {}

func (e *IntLit) Position() Pos     { return e.Pos }
func (e *FloatLit) Position() Pos   { return e.Pos }
func (e *StrLit) Position() Pos     { return e.Pos }
func (e *Ident) Position() Pos      { return e.Pos }
func (e *Unary) Position() Pos      { return e.Pos }
func (e *Binary) Position() Pos     { return e.Pos }
func (e *Assign) Position() Pos     { return e.Pos }
func (e *Cond) Position() Pos       { return e.Pos }
func (e *Call) Position() Pos       { return e.Pos }
func (e *Index) Position() Pos      { return e.Pos }
func (e *Member) Position() Pos     { return e.Pos }
func (e *Cast) Position() Pos       { return e.Pos }
func (e *SizeofType) Position() Pos { return e.Pos }
func (e *VaStart) Position() Pos    { return e.Pos }
func (e *VaArg) Position() Pos      { return e.Pos }
