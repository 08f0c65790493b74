package minic

import (
	"fmt"

	"confllvm/internal/types"
)

// QualGen allocates fresh qualifier inference variables. One generator is
// shared by the parser (for unannotated local declarations and casts) and
// the IR generator (for temporaries).
type QualGen struct{ n int32 }

// Fresh returns a new qualifier variable.
func (g *QualGen) Fresh() types.Qual {
	q := types.Qual(g.n)
	g.n++
	return q
}

// Count returns the number of variables allocated so far.
func (g *QualGen) Count() int32 { return g.n }

type parser struct {
	toks    []Token
	pos     int
	structs map[string]*types.Type
	gen     *QualGen
	inFunc  bool // inside a function body: unannotated quals become variables

	// paramNames carries the parameter names of the most recently parsed
	// function declarator (C declarators carry names out-of-band).
	paramNames []string
}

// Parse parses one source file. structs is a shared tag registry (pass the
// same map when parsing multiple files of one program); gen is the shared
// qualifier-variable generator.
func Parse(name, src string, structs map[string]*types.Type, gen *QualGen) (*File, error) {
	toks, err := Lex(name, src)
	if err != nil {
		return nil, err
	}
	if structs == nil {
		structs = map[string]*types.Type{}
	}
	p := &parser{toks: toks, structs: structs, gen: gen}
	f := &File{Name: name, Structs: structs}
	if err := p.file(f); err != nil {
		return nil, err
	}
	return f, nil
}

func (p *parser) cur() Token { return p.toks[p.pos] }
func (p *parser) peek() Token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *parser) advance() Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) isPunct(s string) bool {
	t := p.cur()
	return t.Kind == TokPunct && t.Text == s
}

func (p *parser) isKw(s string) bool {
	t := p.cur()
	return t.Kind == TokKeyword && t.Text == s
}

func (p *parser) eatPunct(s string) bool {
	if p.isPunct(s) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) eatKw(s string) bool {
	if p.isKw(s) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.eatPunct(s) {
		return &Error{p.cur().Pos, fmt.Sprintf("expected %q, found %s", s, p.cur())}
	}
	return nil
}

func (p *parser) errf(format string, args ...interface{}) error {
	return &Error{p.cur().Pos, fmt.Sprintf(format, args...)}
}

// freshQual returns a fresh inference variable inside function bodies and
// Public at top level (the paper's convention: unannotated top-level
// definitions are public; locals are inferred).
func (p *parser) freshQual() types.Qual {
	if p.inFunc {
		return p.gen.Fresh()
	}
	return types.Public
}

// ---- Top level ----

func (p *parser) file(f *File) error {
	for p.cur().Kind != TokEOF {
		if p.isKw("struct") || p.isKw("union") {
			// Could be a tag definition `struct s { ... };` or a
			// declaration using the tag. Peek: kw ident '{'.
			if p.peek().Kind == TokIdent {
				save := p.pos
				kw := p.advance().Text
				tag := p.advance().Text
				if p.isPunct("{") {
					if err := p.structDef(kw, tag); err != nil {
						return err
					}
					if err := p.expectPunct(";"); err != nil {
						return err
					}
					continue
				}
				p.pos = save
			}
		}
		if err := p.topDecl(f); err != nil {
			return err
		}
	}
	return nil
}

func (p *parser) structDef(kw, tag string) error {
	t := &types.Type{Name: tag, Qual: types.Public}
	if kw == "struct" {
		t.Kind = types.Struct
	} else {
		t.Kind = types.Union
	}
	// Register before parsing fields so self-referential pointers work.
	p.structs[kw+" "+tag] = t
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	for !p.eatPunct("}") {
		base, err := p.declSpec()
		if err != nil {
			return err
		}
		for {
			name, ty, err := p.declarator(base)
			if err != nil {
				return err
			}
			if name == "" {
				return p.errf("field name expected")
			}
			t.Fields = append(t.Fields, types.Field{Name: name, Type: ty})
			if !p.eatPunct(",") {
				break
			}
		}
		if err := p.expectPunct(";"); err != nil {
			return err
		}
	}
	t.Layout()
	return nil
}

func (p *parser) topDecl(f *File) error {
	isExtern := p.eatKw("extern")
	isStatic := false
	for p.eatKw("static") || p.eatKw("const") || p.eatKw("volatile") {
		isStatic = true
	}
	base, err := p.declSpec()
	if err != nil {
		return err
	}
	if p.eatPunct(";") {
		return nil // bare struct declaration already handled
	}
	first := true
	for {
		pos := p.cur().Pos
		name, ty, err := p.declaratorFn(base)
		if err != nil {
			return err
		}
		if name == "" {
			return p.errf("declarator name expected")
		}
		if ty.Kind == types.Func {
			fd := &FuncDecl{
				Pos: pos, Name: name, Extern: isExtern,
				Sig: &types.FuncSig{Ret: ty.Sig.Ret, Variadic: ty.Sig.Variadic},
			}
			for i, pt := range ty.Sig.Params {
				pname := ""
				if i < len(p.paramNames) {
					pname = p.paramNames[i]
				}
				fd.Params = append(fd.Params, Param{Name: pname, Type: pt, Pos: pos})
				fd.Sig.Params = append(fd.Sig.Params, types.Decay(pt))
			}
			if first && p.isPunct("{") {
				if isExtern {
					return p.errf("extern function %s cannot have a body", name)
				}
				p.inFunc = true
				body, err := p.block()
				p.inFunc = false
				if err != nil {
					return err
				}
				fd.Body = body
				f.Funcs = append(f.Funcs, fd)
				return nil
			}
			f.Funcs = append(f.Funcs, fd)
		} else {
			vd := &VarDecl{Pos: pos, Name: name, Type: ty, Static: isStatic}
			if p.eatPunct("=") {
				if err := p.initializer(vd); err != nil {
					return err
				}
			}
			f.Globals = append(f.Globals, vd)
		}
		first = false
		if !p.eatPunct(",") {
			break
		}
	}
	return p.expectPunct(";")
}

func (p *parser) initializer(vd *VarDecl) error {
	if p.isPunct("{") {
		p.advance()
		for !p.eatPunct("}") {
			e, err := p.assignExpr()
			if err != nil {
				return err
			}
			vd.Inits = append(vd.Inits, e)
			if !p.eatPunct(",") {
				if err := p.expectPunct("}"); err != nil {
					return err
				}
				break
			}
		}
		return nil
	}
	if p.cur().Kind == TokStr && vd.Type.Kind == types.Array {
		s := p.advance().Str
		vd.StrVal = &s
		return nil
	}
	e, err := p.assignExpr()
	if err != nil {
		return err
	}
	vd.Init = e
	return nil
}

// ---- Types ----

// isTypeStart reports whether the current token begins a type name.
func (p *parser) isTypeStart() bool {
	t := p.cur()
	if t.Kind != TokKeyword {
		return false
	}
	switch t.Text {
	case "void", "char", "short", "int", "long", "double", "float",
		"unsigned", "signed", "struct", "union", "private", "const":
		return true
	}
	return false
}

// declSpec parses [private] [const] base-type.
func (p *parser) declSpec() (*types.Type, error) {
	qual := p.freshQual()
	hasPrivate := false
	for {
		if p.eatKw("private") {
			hasPrivate = true
			continue
		}
		if p.eatKw("const") || p.eatKw("volatile") {
			continue
		}
		break
	}
	if hasPrivate {
		qual = types.Private
	}
	unsigned := false
	if p.eatKw("unsigned") {
		unsigned = true
	} else if p.eatKw("signed") {
		unsigned = false
	}
	t := p.cur()
	if t.Kind != TokKeyword {
		if unsigned {
			return types.MakeInt(4, false, qual), nil // bare `unsigned`
		}
		return nil, p.errf("type name expected, found %s", t)
	}
	switch t.Text {
	case "void":
		p.advance()
		if hasPrivate {
			// `private void` exists only as a pointee (private void *p):
			// carry the qualifier so a private pointer erased to void*
			// stays deep-compatible with private pointees instead of
			// silently reverting to a public pointee (which made every
			// `private void *` parameter reject private-pointer
			// arguments in taint inference).
			return &types.Type{Kind: types.Void, Qual: types.Private}, nil
		}
		return types.MakeVoid(), nil
	case "char":
		p.advance()
		return types.MakeInt(1, !unsigned, qual), nil
	case "short":
		p.advance()
		p.eatKw("int")
		return types.MakeInt(2, !unsigned, qual), nil
	case "int":
		p.advance()
		return types.MakeInt(4, !unsigned, qual), nil
	case "long":
		p.advance()
		p.eatKw("long")
		p.eatKw("int")
		return types.MakeInt(8, !unsigned, qual), nil
	case "double", "float":
		p.advance()
		return types.MakeFloat(qual), nil
	case "struct", "union":
		kw := p.advance().Text
		if p.cur().Kind != TokIdent {
			return nil, p.errf("struct tag expected")
		}
		tag := p.advance().Text
		st, ok := p.structs[kw+" "+tag]
		if !ok {
			// Forward reference: register an incomplete record.
			st = &types.Type{Name: tag, Qual: types.Public}
			if kw == "struct" {
				st.Kind = types.Struct
			} else {
				st.Kind = types.Union
			}
			p.structs[kw+" "+tag] = st
		}
		c := st.Clone()
		c.Qual = qual
		return c, nil
	}
	if unsigned {
		return types.MakeInt(4, false, qual), nil
	}
	return nil, p.errf("type name expected, found %s", t)
}

// declarator parses pointers and a direct declarator, returning the
// declared name (possibly empty for abstract declarators) and the full type.
func (p *parser) declarator(base *types.Type) (string, *types.Type, error) {
	name, ty, err := p.declaratorFn(base)
	return name, ty, err
}

func (p *parser) declaratorFn(base *types.Type) (string, *types.Type, error) {
	// Pointers: each '*' may be followed by `private` qualifying the
	// pointer itself, or `const` (ignored).
	for p.eatPunct("*") {
		q := p.freshQual()
		for {
			if p.eatKw("private") {
				q = types.Private
				continue
			}
			if p.eatKw("const") || p.eatKw("volatile") {
				continue
			}
			break
		}
		base = types.MakePtr(base, q)
	}
	return p.directDeclarator(base)
}

func (p *parser) directDeclarator(base *types.Type) (string, *types.Type, error) {
	var name string
	var innerStart, innerEnd int = -1, -1

	if p.isPunct("(") && p.declaratorFollows() {
		// Parenthesized inner declarator: skip its tokens now, apply later.
		p.advance()
		depth := 1
		innerStart = p.pos
		for depth > 0 {
			if p.cur().Kind == TokEOF {
				return "", nil, p.errf("unterminated declarator")
			}
			if p.isPunct("(") {
				depth++
			} else if p.isPunct(")") {
				depth--
				if depth == 0 {
					break
				}
			}
			p.advance()
		}
		innerEnd = p.pos
		p.advance() // ')'
	} else if p.cur().Kind == TokIdent {
		name = p.advance().Text
	}

	ty := base
	// Suffixes, applied right-to-left onto base.
	type suffix struct {
		isArr    bool
		n        int
		params   []*types.Type
		pnames   []string
		variadic bool
	}
	var suffixes []suffix
	for {
		if p.eatPunct("[") {
			n := 0
			if !p.isPunct("]") {
				e, err := p.condExpr()
				if err != nil {
					return "", nil, err
				}
				c, ok := FoldConst(e)
				if !ok || c.Type.Kind != types.Int {
					return "", nil, p.errf("array length must be a constant expression")
				}
				n = int(c.Int)
			}
			if err := p.expectPunct("]"); err != nil {
				return "", nil, err
			}
			suffixes = append(suffixes, suffix{isArr: true, n: n})
			continue
		}
		if p.isPunct("(") {
			p.advance()
			var params []*types.Type
			var pnames []string
			variadic := false
			if p.isKw("void") && p.peek().Kind == TokPunct && p.peek().Text == ")" {
				p.advance()
			}
			for !p.isPunct(")") {
				if p.eatPunct("...") {
					variadic = true
					break
				}
				pb, err := p.declSpec()
				if err != nil {
					return "", nil, err
				}
				pn, pt, err := p.declaratorFn(pb)
				if err != nil {
					return "", nil, err
				}
				pt = types.Decay(pt) // array params decay
				params = append(params, pt)
				pnames = append(pnames, pn)
				if !p.eatPunct(",") {
					break
				}
			}
			if err := p.expectPunct(")"); err != nil {
				return "", nil, err
			}
			suffixes = append(suffixes, suffix{params: params, pnames: pnames, variadic: variadic})
			continue
		}
		break
	}
	for i := len(suffixes) - 1; i >= 0; i-- {
		s := suffixes[i]
		if s.isArr {
			ty = types.MakeArray(ty, s.n)
		} else {
			ty = types.MakeFunc(&types.FuncSig{Params: s.params, Ret: ty, Variadic: s.variadic})
			p.paramNames = s.pnames
		}
	}

	if innerStart >= 0 {
		// Re-parse the inner declarator with the constructed type as base.
		sub := &parser{toks: append(append([]Token{}, p.toks[innerStart:innerEnd]...),
			Token{Kind: TokEOF}), structs: p.structs, gen: p.gen, inFunc: p.inFunc}
		n2, t2, err := sub.declaratorFn(ty)
		if err != nil {
			return "", nil, err
		}
		if sub.paramNames != nil {
			p.paramNames = sub.paramNames
		}
		return n2, t2, nil
	}
	return name, ty, nil
}

// paramNames side-channel (see directDeclarator).
func (p *parser) declaratorFollows() bool {
	t := p.peek()
	if t.Kind == TokPunct && t.Text == "*" {
		return true
	}
	// `(ident)` only counts as a declarator if the ident is not a type
	// start — we have no typedefs, so a lone ident inside parens is a
	// declarator name only when followed by tokens that continue a
	// declarator. We keep it simple: '(' ident ')' is a declarator.
	if t.Kind == TokIdent {
		if p.pos+2 < len(p.toks) {
			t2 := p.toks[p.pos+2]
			if t2.Kind == TokPunct && (t2.Text == ")" || t2.Text == "[" || t2.Text == "(") {
				return true
			}
		}
	}
	return false
}

// typeName parses a full type name (for casts and sizeof).
func (p *parser) typeName() (*types.Type, error) {
	base, err := p.declSpec()
	if err != nil {
		return nil, err
	}
	name, ty, err := p.declaratorFn(base)
	if err != nil {
		return nil, err
	}
	if name != "" {
		return nil, p.errf("unexpected name %q in type", name)
	}
	return ty, nil
}

// ---- Statements ----

func (p *parser) block() (*Block, error) {
	pos := p.cur().Pos
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	b := &Block{Pos: pos}
	for !p.eatPunct("}") {
		if p.cur().Kind == TokEOF {
			return nil, p.errf("unterminated block")
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	return b, nil
}

func (p *parser) stmt() (Stmt, error) {
	pos := p.cur().Pos
	switch {
	case p.isPunct("{"):
		return p.block()
	case p.eatPunct(";"):
		return &Empty{pos}, nil
	case p.eatKw("if"):
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		then, err := p.stmt()
		if err != nil {
			return nil, err
		}
		var els Stmt
		if p.eatKw("else") {
			if els, err = p.stmt(); err != nil {
				return nil, err
			}
		}
		return &If{pos, cond, then, els}, nil
	case p.eatKw("while"):
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		body, err := p.stmt()
		if err != nil {
			return nil, err
		}
		return &While{pos, cond, body}, nil
	case p.eatKw("do"):
		body, err := p.stmt()
		if err != nil {
			return nil, err
		}
		if !p.eatKw("while") {
			return nil, p.errf("expected while after do body")
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return &DoWhile{pos, body, cond}, nil
	case p.eatKw("for"):
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var init Stmt
		if !p.eatPunct(";") {
			if p.isTypeStart() {
				ds, err := p.declStmt()
				if err != nil {
					return nil, err
				}
				init = ds
			} else {
				e, err := p.expr()
				if err != nil {
					return nil, err
				}
				init = &ExprStmt{pos, e}
				if err := p.expectPunct(";"); err != nil {
					return nil, err
				}
			}
		}
		var cond Expr
		if !p.isPunct(";") {
			var err error
			if cond, err = p.expr(); err != nil {
				return nil, err
			}
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		var post Expr
		if !p.isPunct(")") {
			var err error
			if post, err = p.expr(); err != nil {
				return nil, err
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		body, err := p.stmt()
		if err != nil {
			return nil, err
		}
		return &For{pos, init, cond, post, body}, nil
	case p.eatKw("return"):
		var x Expr
		if !p.isPunct(";") {
			var err error
			if x, err = p.expr(); err != nil {
				return nil, err
			}
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return &Return{pos, x}, nil
	case p.eatKw("break"):
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return &Break{pos}, nil
	case p.eatKw("continue"):
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return &Continue{pos}, nil
	}
	if p.isTypeStart() {
		return p.declStmt()
	}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	return &ExprStmt{pos, e}, nil
}

// declStmt parses a local declaration list including the trailing ';'.
func (p *parser) declStmt() (*DeclStmt, error) {
	pos := p.cur().Pos
	base, err := p.declSpec()
	if err != nil {
		return nil, err
	}
	ds := &DeclStmt{Pos: pos}
	for {
		dpos := p.cur().Pos
		name, ty, err := p.declaratorFn(base)
		if err != nil {
			return nil, err
		}
		if name == "" {
			return nil, p.errf("variable name expected")
		}
		vd := &VarDecl{Pos: dpos, Name: name, Type: ty}
		if p.eatPunct("=") {
			if err := p.initializer(vd); err != nil {
				return nil, err
			}
		}
		ds.Decls = append(ds.Decls, vd)
		if !p.eatPunct(",") {
			break
		}
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	return ds, nil
}

// ---- Expressions ----

func (p *parser) expr() (Expr, error) { return p.assignExpr() }

func (p *parser) assignExpr() (Expr, error) {
	lhs, err := p.condExpr()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.Kind == TokPunct {
		var op string
		switch t.Text {
		case "=":
			op = ""
		case "+=":
			op = "+"
		case "-=":
			op = "-"
		case "*=":
			op = "*"
		case "/=":
			op = "/"
		case "%=":
			op = "%"
		case "&=":
			op = "&"
		case "|=":
			op = "|"
		case "^=":
			op = "^"
		case "<<=":
			op = "<<"
		case ">>=":
			op = ">>"
		default:
			return lhs, nil
		}
		pos := p.advance().Pos
		rhs, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		return &Assign{pos, op, lhs, rhs}, nil
	}
	return lhs, nil
}

func (p *parser) condExpr() (Expr, error) {
	c, err := p.binExpr(0)
	if err != nil {
		return nil, err
	}
	if p.isPunct("?") {
		pos := p.advance().Pos
		t, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(":"); err != nil {
			return nil, err
		}
		f, err := p.condExpr()
		if err != nil {
			return nil, err
		}
		return &Cond{pos, c, t, f}, nil
	}
	return c, nil
}

// binary operator precedence (higher binds tighter).
var binPrec = map[string]int{
	"||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
	"==": 6, "!=": 6,
	"<": 7, "<=": 7, ">": 7, ">=": 7,
	"<<": 8, ">>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

func (p *parser) binExpr(minPrec int) (Expr, error) {
	lhs, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind != TokPunct {
			return lhs, nil
		}
		prec, ok := binPrec[t.Text]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		op := p.advance()
		rhs, err := p.binExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &Binary{op.Pos, op.Text, lhs, rhs}
	}
}

func (p *parser) unaryExpr() (Expr, error) {
	t := p.cur()
	pos := t.Pos
	if t.Kind == TokPunct {
		switch t.Text {
		case "-", "!", "~", "*", "&", "+":
			p.advance()
			x, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			if t.Text == "+" {
				return x, nil
			}
			return &Unary{pos, t.Text, x, false}, nil
		case "++", "--":
			p.advance()
			x, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			return &Unary{pos, t.Text, x, false}, nil
		case "(":
			// Cast or parenthesized expression.
			save := p.pos
			p.advance()
			if p.isTypeStart() {
				ty, err := p.typeName()
				if err != nil {
					return nil, err
				}
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
				x, err := p.unaryExpr()
				if err != nil {
					return nil, err
				}
				return &Cast{pos, ty, x}, nil
			}
			p.pos = save
		}
	}
	if p.eatKw("sizeof") {
		if p.isPunct("(") && func() bool {
			save := p.pos
			p.advance()
			ok := p.isTypeStart()
			p.pos = save
			return ok
		}() {
			p.advance()
			ty, err := p.typeName()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return &SizeofType{pos, ty}, nil
		}
		return nil, p.errf("sizeof requires a parenthesized type name")
	}
	return p.postfixExpr()
}

func (p *parser) postfixExpr() (Expr, error) {
	x, err := p.primaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind != TokPunct {
			return x, nil
		}
		switch t.Text {
		case "(":
			pos := p.advance().Pos
			call := &Call{Pos: pos, Fn: x}
			for !p.isPunct(")") {
				a, err := p.assignExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
				if !p.eatPunct(",") {
					break
				}
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			x = call
		case "[":
			pos := p.advance().Pos
			i, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			x = &Index{pos, x, i}
		case ".", "->":
			arrow := t.Text == "->"
			pos := p.advance().Pos
			if p.cur().Kind != TokIdent {
				return nil, p.errf("field name expected after %q", t.Text)
			}
			name := p.advance().Text
			x = &Member{pos, x, name, arrow}
		case "++", "--":
			pos := p.advance().Pos
			x = &Unary{pos, t.Text, x, true}
		default:
			return x, nil
		}
	}
}

func (p *parser) primaryExpr() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokInt:
		p.advance()
		return &IntLit{t.Pos, t.Int}, nil
	case TokFloat:
		p.advance()
		return &FloatLit{t.Pos, t.Flt}, nil
	case TokStr:
		p.advance()
		return &StrLit{t.Pos, t.Str}, nil
	case TokIdent:
		if t.Text == "NULL" {
			p.advance()
			return &IntLit{t.Pos, 0}, nil
		}
		// Builtins.
		if t.Text == "__va_start" {
			p.advance()
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return &VaStart{t.Pos}, nil
		}
		if t.Text == "__va_arg" {
			p.advance()
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			ap, err := p.assignExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(","); err != nil {
				return nil, err
			}
			ty, err := p.typeName()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return &VaArg{t.Pos, ap, ty}, nil
		}
		p.advance()
		return &Ident{t.Pos, t.Text}, nil
	case TokKeyword:
		if t.Text == "NULL" {
			p.advance()
			return &IntLit{t.Pos, 0}, nil
		}
	case TokPunct:
		if t.Text == "(" {
			p.advance()
			x, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return x, nil
		}
	}
	return nil, p.errf("expression expected, found %s", t)
}
