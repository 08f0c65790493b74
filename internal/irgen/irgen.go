// Package irgen lowers miniC ASTs to the typed IR. It implements C
// evaluation semantics for the supported subset: usual arithmetic
// conversions, array decay, pointer arithmetic, short-circuit logic,
// compound assignment, function pointers and varargs.
//
// Scalar locals whose address is never taken are promoted directly to
// virtual registers; everything else becomes a stack object (alloca) whose
// region (public or private stack) is decided by taint resolution.
package irgen

import (
	"encoding/binary"
	"fmt"
	"math"

	"confllvm/internal/ir"
	"confllvm/internal/minic"
	"confllvm/internal/types"
)

type local struct {
	vreg   ir.Value   // valid if alloca == nil
	alloca *ir.Alloca // non-nil for memory-resident locals
	ty     *types.Type
}

type generator struct {
	mod  *ir.Module
	gen  *minic.QualGen
	errs []error

	// current function state
	fn        *ir.Func
	blk       *ir.Block
	scopes    []map[string]*local
	addrTaken map[string]bool
	breakBlk  []int
	contBlk   []int
	strCount  int
}

// Gen lowers the parsed files into a single IR module. gen must be the
// same qualifier generator used during parsing.
func Gen(files []*minic.File, gen *minic.QualGen) (*ir.Module, error) {
	g := &generator{mod: ir.NewModule(), gen: gen}

	// Pass 1: register all function signatures (including extern T
	// functions) and globals, so forward references resolve. A function
	// keeps the signature of its first declaration; every later one must
	// agree with it.
	var bodies []*minic.FuncDecl
	defined := map[string]bool{}
	for _, f := range files {
		for _, fd := range f.Funcs {
			if prev := g.mod.Func(fd.Name); prev == nil {
				g.mod.AddFunc(&ir.Func{Name: fd.Name, Sig: fd.Sig, Extern: fd.Extern, Pos: fd.Pos})
			} else if !types.SameDecl(prev.Sig, fd.Sig) || prev.Extern != fd.Extern {
				g.errorf(fd.Pos, "conflicting types for %s", fd.Name)
				continue
			}
			switch {
			case fd.Body == nil:
			case defined[fd.Name]:
				g.errorf(fd.Pos, "function %s redefined", fd.Name)
			default:
				defined[fd.Name] = true
				bodies = append(bodies, fd)
			}
		}
		for _, vd := range f.Globals {
			g.genGlobal(vd)
		}
	}

	// Pass 2: function bodies.
	for _, fd := range bodies {
		g.genFunc(fd)
	}
	if len(g.errs) > 0 {
		return nil, g.errs[0]
	}
	return g.mod, nil
}

func (g *generator) errorf(pos minic.Pos, format string, args ...interface{}) {
	g.errs = append(g.errs, &minic.Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// ---- Globals ----

func (g *generator) genGlobal(vd *minic.VarDecl) {
	if g.mod.Global(vd.Name) != nil {
		g.errorf(vd.Pos, "global %s redefined", vd.Name)
		return
	}
	t := vd.Type
	glob := &ir.Global{Name: vd.Name, Type: t, Pos: vd.Pos}
	glob.Data = make([]byte, t.SizeOf())
	switch {
	case vd.StrVal != nil:
		copy(glob.Data, *vd.StrVal)
	case vd.Inits != nil:
		elemSize := 8
		var elem *types.Type
		if t.Kind == types.Array {
			elem = t.Elem
			elemSize = elem.SizeOf()
		} else if t.IsRecord() {
			// Struct initializer: field-by-field.
			for i, e := range vd.Inits {
				if i >= len(t.Fields) {
					g.errorf(vd.Pos, "too many initializers for %s", t)
					break
				}
				g.initScalar(glob, t.Fields[i].Offset, t.Fields[i].Type, e, vd.Pos)
			}
			return
		}
		for i, e := range vd.Inits {
			off := i * elemSize
			if off+elemSize > len(glob.Data) {
				g.errorf(vd.Pos, "too many initializers for %s", t)
				break
			}
			g.initScalar(glob, off, elem, e, vd.Pos)
		}
	case vd.Init != nil:
		g.initScalar(glob, 0, t, vd.Init, vd.Pos)
	}
	g.mod.AddGlobal(glob)
}

// initScalar fills one scalar slot of a global initializer, recording a
// relocation when the initializer is a symbol address (function pointers
// in dispatch tables, &global).
func (g *generator) initScalar(glob *ir.Global, off int, t *types.Type, e minic.Expr, pos minic.Pos) {
	size := 8
	if t != nil {
		size = t.SizeOf()
		if t.Kind == types.Array || t.IsRecord() {
			g.errorf(pos, "nested aggregate initializers are not supported")
			return
		}
	}
	if id, ok := e.(*minic.Ident); ok {
		if g.mod.Func(id.Name) != nil {
			glob.Relocs = append(glob.Relocs, ir.Reloc{Off: off, Symbol: id.Name})
			return
		}
		if g.mod.Global(id.Name) != nil {
			glob.Relocs = append(glob.Relocs, ir.Reloc{Off: off, Symbol: id.Name})
			return
		}
	}
	if u, ok := e.(*minic.Unary); ok && u.Op == "&" {
		if id, ok2 := u.X.(*minic.Ident); ok2 && g.mod.Global(id.Name) != nil {
			glob.Relocs = append(glob.Relocs, ir.Reloc{Off: off, Symbol: id.Name})
			return
		}
	}
	if s, ok := e.(*minic.StrLit); ok {
		name := g.internString(s.Val, types.Public)
		glob.Relocs = append(glob.Relocs, ir.Reloc{Off: off, Symbol: name})
		return
	}
	c, ok := minic.FoldConst(e)
	if !ok {
		g.errorf(pos, "global initializer must be a constant expression")
		return
	}
	if t == nil {
		t = longType
	}
	c = c.To(t)
	bits := uint64(c.Int)
	if t.Kind == types.Float {
		bits = math.Float64bits(c.Float)
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], bits)
	copy(glob.Data[off:off+size], buf[:size])
}

// internString creates (or reuses) a rodata global for a string literal
// and returns its symbol name.
func (g *generator) internString(s string, qual types.Qual) string {
	name := fmt.Sprintf(".str%d", g.strCount)
	g.strCount++
	elem := types.MakeInt(1, true, qual)
	t := types.MakeArray(elem, len(s)+1)
	data := make([]byte, len(s)+1)
	copy(data, s)
	g.mod.AddGlobal(&ir.Global{Name: name, Type: t, Data: data})
	return name
}

// ---- Functions ----

func (g *generator) genFunc(fd *minic.FuncDecl) {
	irf := g.mod.Func(fd.Name)
	g.fn = irf
	g.scopes = []map[string]*local{{}}
	g.addrTaken = map[string]bool{}
	markAddrTaken(fd.Body, g.addrTaken)

	entry := irf.NewBlock()
	g.blk = entry

	for i, p := range fd.Params {
		pt := irf.Sig.Params[i]
		v := irf.NewValue(pt)
		irf.ParamRegs = append(irf.ParamRegs, v)
		if p.Name == "" {
			continue
		}
		if g.addrTaken[p.Name] || p.Type.Kind == types.Array || p.Type.IsRecord() {
			a := g.newAlloca(p.Name, pt)
			addr := g.emitV(&ir.Inst{Op: ir.OpAddrOf, A: a,
				Res: irf.NewValue(types.MakePtr(pt, g.gen.Fresh()))})
			g.emit(&ir.Inst{Op: ir.OpStore, Args: []ir.Value{addr, v}, Ty: pt})
			g.define(p.Name, &local{alloca: a, ty: pt})
		} else {
			g.define(p.Name, &local{vreg: v, ty: pt})
		}
	}

	g.genBlock(fd.Body)

	// Implicit return at fall-off.
	if g.blk != nil && !g.terminated() {
		if rt := irf.Sig.Ret; rt.Kind == types.Void {
			g.emit(&ir.Inst{Op: ir.OpRet})
		} else {
			z := g.emitV(&ir.Inst{Op: ir.OpConst, Imm: 0, Ty: rt,
				Res: irf.NewValue(rt)})
			g.emit(&ir.Inst{Op: ir.OpRet, Args: []ir.Value{z}})
		}
	}
	g.fn = nil
}

// markAddrTaken records identifiers whose address is taken with unary &.
func markAddrTaken(s minic.Stmt, set map[string]bool) {
	var walkE func(e minic.Expr)
	walkE = func(e minic.Expr) {
		switch x := e.(type) {
		case *minic.Unary:
			if x.Op == "&" {
				if id, ok := x.X.(*minic.Ident); ok {
					set[id.Name] = true
				}
			}
			walkE(x.X)
		case *minic.Binary:
			walkE(x.X)
			walkE(x.Y)
		case *minic.Assign:
			walkE(x.LHS)
			walkE(x.RHS)
		case *minic.Cond:
			walkE(x.C)
			walkE(x.T)
			walkE(x.F)
		case *minic.Call:
			walkE(x.Fn)
			for _, a := range x.Args {
				walkE(a)
			}
		case *minic.Index:
			walkE(x.X)
			walkE(x.I)
		case *minic.Member:
			walkE(x.X)
		case *minic.Cast:
			walkE(x.X)
		case *minic.VaArg:
			walkE(x.Ap)
		}
	}
	var walkS func(s minic.Stmt)
	walkS = func(s minic.Stmt) {
		switch x := s.(type) {
		case *minic.Block:
			for _, st := range x.Stmts {
				walkS(st)
			}
		case *minic.DeclStmt:
			for _, d := range x.Decls {
				if d.Init != nil {
					walkE(d.Init)
				}
				for _, e := range d.Inits {
					walkE(e)
				}
			}
		case *minic.ExprStmt:
			walkE(x.X)
		case *minic.If:
			walkE(x.Cond)
			walkS(x.Then)
			if x.Else != nil {
				walkS(x.Else)
			}
		case *minic.While:
			walkE(x.Cond)
			walkS(x.Body)
		case *minic.DoWhile:
			walkS(x.Body)
			walkE(x.Cond)
		case *minic.For:
			if x.Init != nil {
				walkS(x.Init)
			}
			if x.Cond != nil {
				walkE(x.Cond)
			}
			if x.Post != nil {
				walkE(x.Post)
			}
			walkS(x.Body)
		case *minic.Return:
			if x.X != nil {
				walkE(x.X)
			}
		}
	}
	walkS(s)
}

// ---- Emission helpers ----

func (g *generator) emit(in *ir.Inst) {
	if !in.Op.HasResult() {
		// Normalize: a zero Res would alias virtual register 0 in
		// liveness and optimization bookkeeping.
		in.Res = ir.NoValue
	}
	if g.blk == nil {
		// Unreachable code after a terminator: drop it into a fresh
		// orphan block so the rest of the pipeline stays simple (DCE
		// removes it).
		g.blk = g.fn.NewBlock()
	}
	g.blk.Insts = append(g.blk.Insts, in)
	if in.Op.IsTerminator() {
		g.blk = nil
	}
}

// emitV emits and returns the instruction's result value.
func (g *generator) emitV(in *ir.Inst) ir.Value {
	g.emit(in)
	return in.Res
}

func (g *generator) terminated() bool {
	return g.blk == nil ||
		(len(g.blk.Insts) > 0 && g.blk.Insts[len(g.blk.Insts)-1].Op.IsTerminator())
}

func (g *generator) startBlock(b *ir.Block) { g.blk = b }

func (g *generator) branchTo(id int) {
	if !g.terminated() {
		g.emit(&ir.Inst{Op: ir.OpBr, Blk: id})
	}
	g.blk = nil
}

func (g *generator) newAlloca(name string, t *types.Type) *ir.Alloca {
	a := &ir.Alloca{Name: name, Type: t}
	g.fn.Allocas = append(g.fn.Allocas, a)
	return a
}

func (g *generator) define(name string, l *local) {
	g.scopes[len(g.scopes)-1][name] = l
}

func (g *generator) lookup(name string) *local {
	for i := len(g.scopes) - 1; i >= 0; i-- {
		if l, ok := g.scopes[i][name]; ok {
			return l
		}
	}
	return nil
}

func (g *generator) pushScope() { g.scopes = append(g.scopes, map[string]*local{}) }
func (g *generator) popScope()  { g.scopes = g.scopes[:len(g.scopes)-1] }

func (g *generator) constInt(v int64, t *types.Type) ir.Value {
	return g.emitV(&ir.Inst{Op: ir.OpConst, Imm: v, Ty: t, Res: g.fn.NewValue(t)})
}

var intType = types.MakeInt(4, true, types.Public)
var longType = types.MakeInt(8, true, types.Public)
