package irgen

import (
	"confllvm/internal/ir"
	"confllvm/internal/minic"
	"confllvm/internal/types"
)

// ---- Statements ----

func (g *generator) genBlock(b *minic.Block) {
	g.pushScope()
	for _, s := range b.Stmts {
		g.genStmt(s)
	}
	g.popScope()
}

func (g *generator) genStmt(s minic.Stmt) {
	switch x := s.(type) {
	case *minic.Block:
		g.genBlock(x)
	case *minic.Empty:
	case *minic.DeclStmt:
		for _, d := range x.Decls {
			g.genLocalDecl(d)
		}
	case *minic.ExprStmt:
		g.genEffect(x.X)
	case *minic.If:
		cond, _ := g.genExpr(x.Cond)
		cond = g.truthValue(cond, x.Cond)
		thenB := g.fn.NewBlock()
		var elseB *ir.Block
		exitB := g.fn.NewBlock()
		elseID := exitB.ID
		if x.Else != nil {
			elseB = g.fn.NewBlock()
			elseID = elseB.ID
		}
		g.emit(&ir.Inst{Op: ir.OpCondBr, Args: []ir.Value{cond}, Blk: thenB.ID, Blk2: elseID})
		g.startBlock(thenB)
		g.genStmt(x.Then)
		g.branchTo(exitB.ID)
		if elseB != nil {
			g.startBlock(elseB)
			g.genStmt(x.Else)
			g.branchTo(exitB.ID)
		}
		g.startBlock(exitB)
	case *minic.While:
		head := g.fn.NewBlock()
		body := g.fn.NewBlock()
		exit := g.fn.NewBlock()
		g.branchTo(head.ID)
		g.startBlock(head)
		cond, _ := g.genExpr(x.Cond)
		cond = g.truthValue(cond, x.Cond)
		g.emit(&ir.Inst{Op: ir.OpCondBr, Args: []ir.Value{cond}, Blk: body.ID, Blk2: exit.ID})
		g.breakBlk = append(g.breakBlk, exit.ID)
		g.contBlk = append(g.contBlk, head.ID)
		g.startBlock(body)
		g.genStmt(x.Body)
		g.branchTo(head.ID)
		g.breakBlk = g.breakBlk[:len(g.breakBlk)-1]
		g.contBlk = g.contBlk[:len(g.contBlk)-1]
		g.startBlock(exit)
	case *minic.DoWhile:
		body := g.fn.NewBlock()
		check := g.fn.NewBlock()
		exit := g.fn.NewBlock()
		g.branchTo(body.ID)
		g.breakBlk = append(g.breakBlk, exit.ID)
		g.contBlk = append(g.contBlk, check.ID)
		g.startBlock(body)
		g.genStmt(x.Body)
		g.branchTo(check.ID)
		g.breakBlk = g.breakBlk[:len(g.breakBlk)-1]
		g.contBlk = g.contBlk[:len(g.contBlk)-1]
		g.startBlock(check)
		cond, _ := g.genExpr(x.Cond)
		cond = g.truthValue(cond, x.Cond)
		g.emit(&ir.Inst{Op: ir.OpCondBr, Args: []ir.Value{cond}, Blk: body.ID, Blk2: exit.ID})
		g.startBlock(exit)
	case *minic.For:
		g.pushScope()
		if x.Init != nil {
			g.genStmt(x.Init)
		}
		head := g.fn.NewBlock()
		body := g.fn.NewBlock()
		post := g.fn.NewBlock()
		exit := g.fn.NewBlock()
		g.branchTo(head.ID)
		g.startBlock(head)
		if x.Cond != nil {
			cond, _ := g.genExpr(x.Cond)
			cond = g.truthValue(cond, x.Cond)
			g.emit(&ir.Inst{Op: ir.OpCondBr, Args: []ir.Value{cond}, Blk: body.ID, Blk2: exit.ID})
		} else {
			g.branchTo(body.ID)
		}
		g.breakBlk = append(g.breakBlk, exit.ID)
		g.contBlk = append(g.contBlk, post.ID)
		g.startBlock(body)
		g.genStmt(x.Body)
		g.branchTo(post.ID)
		g.breakBlk = g.breakBlk[:len(g.breakBlk)-1]
		g.contBlk = g.contBlk[:len(g.contBlk)-1]
		g.startBlock(post)
		if x.Post != nil {
			g.genEffect(x.Post)
		}
		g.branchTo(head.ID)
		g.startBlock(exit)
		g.popScope()
	case *minic.Return:
		if x.X == nil {
			g.emit(&ir.Inst{Op: ir.OpRet})
			return
		}
		v, t := g.genExpr(x.X)
		v = g.convert(v, t, g.fn.Sig.Ret, x.Pos)
		g.emit(&ir.Inst{Op: ir.OpRet, Args: []ir.Value{v}})
	case *minic.Break:
		if len(g.breakBlk) == 0 {
			g.errorf(x.Pos, "break outside loop")
			return
		}
		g.branchTo(g.breakBlk[len(g.breakBlk)-1])
	case *minic.Continue:
		if len(g.contBlk) == 0 {
			g.errorf(x.Pos, "continue outside loop")
			return
		}
		g.branchTo(g.contBlk[len(g.contBlk)-1])
	}
}

func (g *generator) genLocalDecl(d *minic.VarDecl) {
	t := d.Type
	needMem := g.addrTaken[d.Name] || t.Kind == types.Array || t.IsRecord()
	if needMem {
		a := g.newAlloca(d.Name, t)
		l := &local{alloca: a, ty: t}
		g.define(d.Name, l)
		switch {
		case d.StrVal != nil:
			if t.Kind != types.Array {
				g.errorf(d.Pos, "string initializer requires a char array")
				return
			}
			base := g.allocaAddr(a)
			byteTy := t.Elem
			for i := 0; i < len(*d.StrVal)+1 && i < t.Len; i++ {
				var c byte
				if i < len(*d.StrVal) {
					c = (*d.StrVal)[i]
				}
				cv := g.constInt(int64(c), byteTy)
				off := g.constInt(int64(i), longType)
				addr := g.emitV(&ir.Inst{Op: ir.OpAdd, Args: []ir.Value{base, off},
					Res: g.fn.NewValue(g.fn.ValueType(base))})
				g.emit(&ir.Inst{Op: ir.OpStore, Args: []ir.Value{addr, cv}, Ty: byteTy})
			}
		case d.Inits != nil:
			if t.Kind != types.Array {
				g.errorf(d.Pos, "brace initializer requires an array")
				return
			}
			base := g.allocaAddr(a)
			es := t.Elem.SizeOf()
			for i, e := range d.Inits {
				v, vt := g.genExpr(e)
				v = g.convert(v, vt, t.Elem, d.Pos)
				off := g.constInt(int64(i*es), longType)
				addr := g.emitV(&ir.Inst{Op: ir.OpAdd, Args: []ir.Value{base, off},
					Res: g.fn.NewValue(g.fn.ValueType(base))})
				g.emit(&ir.Inst{Op: ir.OpStore, Args: []ir.Value{addr, v}, Ty: t.Elem})
			}
		case d.Init != nil:
			v, vt := g.genExpr(d.Init)
			v = g.convert(v, vt, t, d.Pos)
			addr := g.allocaAddr(a)
			g.emit(&ir.Inst{Op: ir.OpStore, Args: []ir.Value{addr, v}, Ty: t})
		}
		return
	}
	// Promoted scalar local. Its name enters scope after its initializer:
	// reading it there (undefined in C) would read a register no
	// instruction has written, which may still hold private data.
	v := g.fn.NewValue(t)
	if d.Init != nil {
		iv, it := g.genExpr(d.Init)
		iv = g.convert(iv, it, t, d.Pos)
		g.emit(&ir.Inst{Op: ir.OpCopy, Args: []ir.Value{iv}, Res: v})
	} else {
		g.emit(&ir.Inst{Op: ir.OpConst, Imm: 0, Ty: t, Res: v})
	}
	g.define(d.Name, &local{vreg: v, ty: t})
}

func (g *generator) allocaAddr(a *ir.Alloca) ir.Value {
	pt := types.MakePtr(a.Type, g.gen.Fresh())
	return g.emitV(&ir.Inst{Op: ir.OpAddrOf, A: a, Res: g.fn.NewValue(pt)})
}

// ---- Expressions ----

// genExpr lowers an rvalue expression and returns its value and type.
// Array-typed expressions decay to element pointers. A void call has no
// value, so using one is a compile error.
func (g *generator) genExpr(e minic.Expr) (ir.Value, *types.Type) {
	v, t := g.genEffect(e)
	if t.Kind == types.Void {
		g.errorf(e.Position(), "void value used as a value")
		return g.constInt(0, intType), intType
	}
	return v, t
}

// genEffect lowers an expression evaluated for its value or only for its
// effects: unlike genExpr, it accepts a void call and a cast to void,
// returning NoValue for them.
func (g *generator) genEffect(e minic.Expr) (ir.Value, *types.Type) {
	switch x := e.(type) {
	case *minic.IntLit:
		t := intType
		if x.Val > 0x7fffffff || x.Val < -0x80000000 {
			t = longType
		}
		return g.constInt(x.Val, t), t
	case *minic.FloatLit:
		t := types.MakeFloat(types.Public)
		return g.emitV(&ir.Inst{Op: ir.OpFConst, FImm: x.Val, Ty: t,
			Res: g.fn.NewValue(t)}), t
	case *minic.StrLit:
		qual := g.gen.Fresh()
		name := g.internString(x.Val, qual)
		elem := types.MakeInt(1, true, qual)
		pt := types.MakePtr(elem, g.gen.Fresh())
		return g.emitV(&ir.Inst{Op: ir.OpGlobalAddr, Global: name,
			Res: g.fn.NewValue(pt)}), pt
	case *minic.Ident:
		return g.genIdent(x)
	case *minic.SizeofType:
		return g.constInt(int64(x.Type.SizeOf()), longType), longType
	case *minic.Unary:
		return g.genUnary(x)
	case *minic.Binary:
		return g.genBinary(x)
	case *minic.Assign:
		return g.genAssign(x)
	case *minic.Cond:
		return g.genCond(x)
	case *minic.Call:
		return g.genCall(x)
	case *minic.Index, *minic.Member:
		addr, elem, ok := g.genAddr(e)
		if !ok {
			return g.constInt(0, intType), intType
		}
		return g.loadFrom(addr, elem)
	case *minic.Cast:
		if x.Type.Kind == types.Void {
			g.genEffect(x.X)
			return ir.NoValue, x.Type
		}
		v, t := g.genExpr(x.X)
		return g.convertExplicit(v, t, x.Type, x.Pos), x.Type
	case *minic.VaStart:
		pt := types.MakePtr(types.MakeInt(1, true, types.Public), types.Public)
		return g.emitV(&ir.Inst{Op: ir.OpVaStart, Res: g.fn.NewValue(pt)}), pt
	case *minic.VaArg:
		return g.genVaArg(x)
	}
	g.errorf(e.Position(), "unsupported expression")
	return g.constInt(0, intType), intType
}

func (g *generator) genIdent(x *minic.Ident) (ir.Value, *types.Type) {
	if l := g.lookup(x.Name); l != nil {
		if l.alloca == nil {
			return l.vreg, l.ty
		}
		addr := g.allocaAddr(l.alloca)
		return g.decayOrLoad(addr, l.ty)
	}
	if glob := g.mod.Global(x.Name); glob != nil {
		pt := types.MakePtr(glob.Type, g.gen.Fresh())
		addr := g.emitV(&ir.Inst{Op: ir.OpGlobalAddr, Global: x.Name,
			Res: g.fn.NewValue(pt)})
		return g.decayOrLoad(addr, glob.Type)
	}
	if fn := g.mod.Func(x.Name); fn != nil {
		pt := types.MakePtr(types.MakeFunc(fn.Sig), types.Public)
		return g.emitV(&ir.Inst{Op: ir.OpFuncAddr, Global: x.Name,
			Res: g.fn.NewValue(pt)}), pt
	}
	g.errorf(x.Pos, "undefined identifier %q", x.Name)
	return g.constInt(0, intType), intType
}

// decayOrLoad converts an addressed object to an rvalue: arrays decay to
// element pointers, records stay as addresses (used via members), scalars
// are loaded.
func (g *generator) decayOrLoad(addr ir.Value, objTy *types.Type) (ir.Value, *types.Type) {
	switch objTy.Kind {
	case types.Array:
		pt := types.MakePtr(objTy.Elem, g.gen.Fresh())
		return g.emitV(&ir.Inst{Op: ir.OpBitcast, Args: []ir.Value{addr}, Ty: pt,
			Res: g.fn.NewValue(pt)}), pt
	case types.Struct, types.Union:
		return addr, objTy
	}
	return g.loadFrom(addr, objTy)
}

func (g *generator) loadFrom(addr ir.Value, elem *types.Type) (ir.Value, *types.Type) {
	if elem.Kind == types.Array || elem.IsRecord() {
		return g.decayOrLoad(addr, elem)
	}
	rt := elem.WithQual(g.gen.Fresh())
	return g.emitV(&ir.Inst{Op: ir.OpLoad, Args: []ir.Value{addr}, Ty: elem,
		Res: g.fn.NewValue(rt)}), rt
}

func (g *generator) genUnary(x *minic.Unary) (ir.Value, *types.Type) {
	switch x.Op {
	case "-", "~":
		v, t := g.genExpr(x.X)
		if t.Kind == types.Float && x.Op == "-" {
			z := g.emitV(&ir.Inst{Op: ir.OpFConst, FImm: 0, Ty: t, Res: g.fn.NewValue(t)})
			rt := t.WithQual(g.gen.Fresh())
			return g.emitV(&ir.Inst{Op: ir.OpFSub, Args: []ir.Value{z, v},
				Res: g.fn.NewValue(rt)}), rt
		}
		op, k := ir.OpSub, int64(0) // -v is 0 - v, ~v is -1 ^ v
		if x.Op == "~" {
			op, k = ir.OpXor, -1
		}
		// The operand is promoted (commonType); only an unsigned int
		// result can leave its range.
		rt := g.commonType(t, t)
		r := g.emitV(&ir.Inst{Op: op, Args: []ir.Value{g.constInt(k, t), v}, Res: g.fn.NewValue(rt)})
		if rt.IsInteger() && rt.Size == 4 && !rt.Signed {
			r = g.normalize(r, rt)
		}
		return r, rt
	case "!":
		v, t := g.genExpr(x.X)
		z := g.constInt(0, t)
		rt := intType.WithQual(g.gen.Fresh())
		return g.emitV(&ir.Inst{Op: ir.OpICmp, Pred: ir.PredEQ,
			Args: []ir.Value{v, z}, Res: g.fn.NewValue(rt)}), rt
	case "*":
		v, t := g.genExpr(x.X)
		if t.Kind != types.Ptr {
			g.errorf(x.Pos, "cannot dereference non-pointer type %s", t)
			return g.constInt(0, intType), intType
		}
		return g.loadFrom(v, t.Elem)
	case "&":
		addr, elem, ok := g.genAddr(x.X)
		if !ok {
			return g.constInt(0, intType), intType
		}
		pt := types.MakePtr(elem, g.gen.Fresh())
		g.fn.SetValueType(addr, pt)
		return addr, pt
	case "++", "--":
		addr, elem, promoted, lv := g.lvalue(x.X)
		if elem == nil {
			return g.constInt(0, intType), intType
		}
		var old ir.Value
		if promoted {
			old = lv.vreg
		} else {
			old, _ = g.loadFrom(addr, elem)
		}
		delta := int64(1)
		if elem.Kind == types.Ptr {
			delta = int64(elem.Elem.SizeOf())
		}
		if x.Op == "--" {
			delta = -delta
		}
		d := g.constInt(delta, longType)
		nt := elem.WithQual(g.gen.Fresh())
		neu := g.emitV(&ir.Inst{Op: ir.OpAdd, Args: []ir.Value{old, d},
			Res: g.fn.NewValue(nt)})
		// char, short and the unsigned types wrap; signed int overflow is
		// undefined, so an int counter stays one add.
		if nt.IsInteger() && nt.Size < 8 && (nt.Size < 4 || !nt.Signed) {
			neu = g.normalize(neu, nt)
		}
		if promoted {
			g.emit(&ir.Inst{Op: ir.OpCopy, Args: []ir.Value{neu}, Res: lv.vreg})
		} else {
			g.emit(&ir.Inst{Op: ir.OpStore, Args: []ir.Value{addr, neu}, Ty: elem})
		}
		if x.Post {
			return old, elem
		}
		return neu, elem
	}
	g.errorf(x.Pos, "unsupported unary operator %q", x.Op)
	return g.constInt(0, intType), intType
}

// truthValue normalizes a value to 0/1 for branching.
func (g *generator) truthValue(v ir.Value, e minic.Expr) ir.Value {
	t := g.fn.ValueType(v)
	if t == nil {
		return v
	}
	if t.Kind == types.Float {
		z := g.emitV(&ir.Inst{Op: ir.OpFConst, FImm: 0, Ty: t, Res: g.fn.NewValue(t)})
		rt := intType.WithQual(g.gen.Fresh())
		return g.emitV(&ir.Inst{Op: ir.OpFCmp, Pred: ir.PredNE,
			Args: []ir.Value{v, z}, Res: g.fn.NewValue(rt)})
	}
	return v
}

var binOpMap = map[string]ir.Op{
	"+": ir.OpAdd, "-": ir.OpSub, "*": ir.OpMul, "/": ir.OpDiv, "%": ir.OpMod,
	"&": ir.OpAnd, "|": ir.OpOr, "^": ir.OpXor, "<<": ir.OpShl,
}

var floatOpMap = map[string]ir.Op{"+": ir.OpFAdd, "-": ir.OpFSub, "*": ir.OpFMul, "/": ir.OpFDiv}

var cmpPredMap = map[string][2]ir.Pred{ // [signed, unsigned]
	"==": {ir.PredEQ, ir.PredEQ}, "!=": {ir.PredNE, ir.PredNE},
	"<": {ir.PredSLT, ir.PredULT}, "<=": {ir.PredSLE, ir.PredULE},
	">": {ir.PredSGT, ir.PredUGT}, ">=": {ir.PredSGE, ir.PredUGE},
}

func (g *generator) genBinary(x *minic.Binary) (ir.Value, *types.Type) {
	switch x.Op {
	case "&&", "||":
		return g.genShortCircuit(x)
	}
	lv, lt := g.genExpr(x.X)
	rv, rt := g.genExpr(x.Y)

	if preds, isCmp := cmpPredMap[x.Op]; isCmp {
		res := intType.WithQual(g.gen.Fresh())
		if lt.Kind == types.Float || rt.Kind == types.Float {
			lv = g.toFloat(lv, lt)
			rv = g.toFloat(rv, rt)
			return g.emitV(&ir.Inst{Op: ir.OpFCmp, Pred: preds[0],
				Args: []ir.Value{lv, rv}, Res: g.fn.NewValue(res)}), res
		}
		pred := preds[0]
		if lt.IsInteger() && rt.IsInteger() {
			// The usual arithmetic conversions: both operands become
			// their common type, which also picks the predicate. Only a
			// signed operand of an unsigned int compare changes its
			// register (a trunc that zero-extends it).
			ct := g.commonType(lt, rt)
			lv, rv = g.convert(lv, lt, ct, x.Pos), g.convert(rv, rt, ct, x.Pos)
			if !ct.Signed {
				pred = preds[1]
			}
		} else if lt.Kind == types.Ptr || rt.Kind == types.Ptr {
			pred = preds[1]
		}
		return g.emitV(&ir.Inst{Op: ir.OpICmp, Pred: pred,
			Args: []ir.Value{lv, rv}, Res: g.fn.NewValue(res)}), res
	}

	return g.arith(x.Pos, x.Op, lv, lt, rv, rt)
}

// arith emits lv op rv for an arithmetic operator (not a compare, && or
// ||), for a binary expression and for a compound assignment alike:
// pointer offsets and differences (any other operation on a pointer is an
// error), float ops, and integer ops under the usual arithmetic
// conversions. A div or mod carries its operation type in Ty, and an op
// that can leave a sub-64-bit type's range is normalized.
func (g *generator) arith(pos minic.Pos, op string, lv ir.Value, lt *types.Type, rv ir.Value, rt *types.Type) (ir.Value, *types.Type) {
	// Pointer arithmetic.
	if op == "+" || op == "-" {
		if lt.Kind == types.Ptr && rt.IsInteger() {
			return g.ptrOffset(lv, lt, rv, op == "-")
		}
		if rt.Kind == types.Ptr && lt.IsInteger() && op == "+" {
			return g.ptrOffset(rv, rt, lv, false)
		}
		if lt.Kind == types.Ptr && rt.Kind == types.Ptr && op == "-" {
			res := longType.WithQual(g.gen.Fresh())
			d := g.emitV(&ir.Inst{Op: ir.OpSub, Args: []ir.Value{lv, rv},
				Res: g.fn.NewValue(res)})
			es := int64(lt.Elem.SizeOf())
			if es > 1 {
				c := g.constInt(es, longType)
				d = g.emitV(&ir.Inst{Op: ir.OpDiv, Args: []ir.Value{d, c}, Ty: longType,
					Res: g.fn.NewValue(res.WithQual(g.gen.Fresh()))})
			}
			return d, res
		}
	}
	if lt.Kind == types.Ptr || rt.Kind == types.Ptr {
		g.errorf(pos, "invalid operands to binary %q", op)
		return g.constInt(0, intType), intType
	}

	if lt.Kind == types.Float || rt.Kind == types.Float {
		fop, ok := floatOpMap[op]
		if !ok {
			g.errorf(pos, "invalid float operator %q", op)
			return g.constInt(0, intType), intType
		}
		lv = g.toFloat(lv, lt)
		rv = g.toFloat(rv, rt)
		res := types.MakeFloat(g.gen.Fresh())
		return g.emitV(&ir.Inst{Op: fop, Args: []ir.Value{lv, rv},
			Res: g.fn.NewValue(res)}), res
	}

	iop, ok := binOpMap[op]
	switch {
	case op == ">>" && lt.Signed:
		iop = ir.OpSar
	case op == ">>":
		iop = ir.OpShr
	case !ok:
		g.errorf(pos, "unsupported binary operator %q", op)
		return g.constInt(0, intType), intType
	}
	var res *types.Type
	if isShift(iop) {
		// A shift has its promoted left operand's type and converts
		// neither operand to the other's type.
		res = g.commonType(lt, lt)
	} else if res = g.commonType(lt, rt); lt.IsInteger() && rt.IsInteger() {
		// The usual arithmetic conversions.
		lv, rv = g.convert(lv, lt, res, pos), g.convert(rv, rt, res, pos)
	}
	in := &ir.Inst{Op: iop, Args: []ir.Value{lv, rv}, Res: g.fn.NewValue(res)}
	if iop == ir.OpDiv || iop == ir.OpMod {
		in.Ty = res
	}
	// An op that can carry a sub-64-bit result out of its type's range
	// re-canonicalizes it.
	v := g.emitV(in)
	if res.Size < 8 && needsNormalize(iop) {
		v = g.normalize(v, res)
	}
	return v, res
}

func isShift(op ir.Op) bool { return op == ir.OpShl || op == ir.OpShr || op == ir.OpSar }

// needsNormalize reports whether an op can carry a result out of its
// type's range when its operands are in it.
func needsNormalize(op ir.Op) bool {
	switch op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpShl:
		return true
	}
	return false
}

// normalize emits the one trunc that brings v into t's canonical
// register form (see ir.OpTrunc); the result has type t.
func (g *generator) normalize(v ir.Value, t *types.Type) ir.Value {
	return g.emitV(&ir.Inst{Op: ir.OpTrunc, Args: []ir.Value{v}, Ty: t,
		Res: g.fn.NewValue(t)})
}

func (g *generator) ptrOffset(p ir.Value, pt *types.Type, idx ir.Value, neg bool) (ir.Value, *types.Type) {
	es := int64(pt.Elem.SizeOf())
	if es > 1 {
		c := g.constInt(es, longType)
		idx = g.emitV(&ir.Inst{Op: ir.OpMul, Args: []ir.Value{idx, c},
			Res: g.fn.NewValue(longType.WithQual(g.gen.Fresh()))})
	}
	op := ir.OpAdd
	if neg {
		op = ir.OpSub
	}
	res := pt.Clone()
	res.Qual = g.gen.Fresh()
	return g.emitV(&ir.Inst{Op: op, Args: []ir.Value{p, idx},
		Res: g.fn.NewValue(res)}), res
}

func (g *generator) toFloat(v ir.Value, t *types.Type) ir.Value {
	if t.Kind == types.Float {
		return v
	}
	ft := types.MakeFloat(g.gen.Fresh())
	return g.emitV(&ir.Inst{Op: ir.OpIntToFP, Args: []ir.Value{v}, Ty: t,
		Res: g.fn.NewValue(ft)})
}

// commonType computes the usual-arithmetic-conversion result type with a
// fresh qualifier.
func (g *generator) commonType(a, b *types.Type) *types.Type {
	if a.Kind == types.Ptr {
		return a.Clone().WithQual(g.gen.Fresh())
	}
	if b.Kind == types.Ptr {
		return b.Clone().WithQual(g.gen.Fresh())
	}
	return types.Promote(a, b, g.gen.Fresh())
}

func (g *generator) genShortCircuit(x *minic.Binary) (ir.Value, *types.Type) {
	res := g.fn.NewValue(intType.WithQual(g.gen.Fresh()))
	evalY := g.fn.NewBlock()
	exit := g.fn.NewBlock()

	lv, _ := g.genExpr(x.X)
	lv = g.truthValue(lv, x.X)
	one := g.constInt(1, intType)
	zero := g.constInt(0, intType)
	lbool := g.emitV(&ir.Inst{Op: ir.OpICmp, Pred: ir.PredNE,
		Args: []ir.Value{lv, zero}, Res: g.fn.NewValue(intType.WithQual(g.gen.Fresh()))})
	g.emit(&ir.Inst{Op: ir.OpCopy, Args: []ir.Value{lbool}, Res: res})
	_ = one
	if x.Op == "&&" {
		g.emit(&ir.Inst{Op: ir.OpCondBr, Args: []ir.Value{lbool}, Blk: evalY.ID, Blk2: exit.ID})
	} else {
		g.emit(&ir.Inst{Op: ir.OpCondBr, Args: []ir.Value{lbool}, Blk: exit.ID, Blk2: evalY.ID})
	}
	g.startBlock(evalY)
	rv, _ := g.genExpr(x.Y)
	rv = g.truthValue(rv, x.Y)
	zero2 := g.constInt(0, intType)
	rbool := g.emitV(&ir.Inst{Op: ir.OpICmp, Pred: ir.PredNE,
		Args: []ir.Value{rv, zero2}, Res: g.fn.NewValue(intType.WithQual(g.gen.Fresh()))})
	g.emit(&ir.Inst{Op: ir.OpCopy, Args: []ir.Value{rbool}, Res: res})
	g.branchTo(exit.ID)
	g.startBlock(exit)
	return res, g.fn.ValueType(res)
}

func (g *generator) genCond(x *minic.Cond) (ir.Value, *types.Type) {
	cv, _ := g.genExpr(x.C)
	cv = g.truthValue(cv, x.C)
	thenB := g.fn.NewBlock()
	elseB := g.fn.NewBlock()
	exit := g.fn.NewBlock()
	g.emit(&ir.Inst{Op: ir.OpCondBr, Args: []ir.Value{cv}, Blk: thenB.ID, Blk2: elseB.ID})

	g.startBlock(thenB)
	tv, tt := g.genExpr(x.T)
	res := g.fn.NewValue(tt.WithQual(g.gen.Fresh()))
	g.emit(&ir.Inst{Op: ir.OpCopy, Args: []ir.Value{tv}, Res: res})
	g.branchTo(exit.ID)

	g.startBlock(elseB)
	fv, ft := g.genExpr(x.F)
	fv = g.convert(fv, ft, tt, x.Pos)
	g.emit(&ir.Inst{Op: ir.OpCopy, Args: []ir.Value{fv}, Res: res})
	g.branchTo(exit.ID)

	g.startBlock(exit)
	return res, g.fn.ValueType(res)
}

func (g *generator) genAssign(x *minic.Assign) (ir.Value, *types.Type) {
	addr, elem, promoted, lv := g.lvalue(x.LHS)
	if elem == nil {
		return g.constInt(0, intType), intType
	}
	var rhs ir.Value
	var rt *types.Type
	if x.Op == "" {
		rhs, rt = g.genExpr(x.RHS)
	} else {
		// Compound: load-modify.
		var old ir.Value
		if promoted {
			old = lv.vreg
		} else {
			old, _ = g.loadFrom(addr, elem)
		}
		rv, vt := g.genExpr(x.RHS)
		rhs, rt = g.arith(x.Pos, x.Op, old, elem, rv, vt)
		if (elem.Kind == types.Ptr) != (rt.Kind == types.Ptr) {
			// int += ptr, ptr -= ptr
			g.errorf(x.Pos, "invalid operands to %s=", x.Op)
		}
	}
	rhs = g.convert(rhs, rt, elem, x.Pos)
	if promoted {
		g.emit(&ir.Inst{Op: ir.OpCopy, Args: []ir.Value{rhs}, Res: lv.vreg})
	} else {
		g.emit(&ir.Inst{Op: ir.OpStore, Args: []ir.Value{addr, rhs}, Ty: elem})
	}
	return rhs, elem
}

// lvalue resolves an assignable expression. It returns either a promoted
// local (promoted=true, lv set) or an address + element type.
func (g *generator) lvalue(e minic.Expr) (addr ir.Value, elem *types.Type, promoted bool, lv *local) {
	if id, ok := e.(*minic.Ident); ok {
		if l := g.lookup(id.Name); l != nil && l.alloca == nil {
			return ir.NoValue, l.ty, true, l
		}
	}
	a, t, ok := g.genAddr(e)
	if !ok {
		return ir.NoValue, nil, false, nil
	}
	return a, t, false, nil
}

func (g *generator) genCall(x *minic.Call) (ir.Value, *types.Type) {
	// Direct call?
	var callee *ir.Func
	if id, ok := x.Fn.(*minic.Ident); ok {
		if g.lookup(id.Name) == nil {
			callee = g.mod.Func(id.Name)
		}
	}
	var sig *types.FuncSig
	var fnVal ir.Value
	if callee != nil {
		sig = callee.Sig
	} else {
		var t *types.Type
		fnVal, t = g.genExpr(x.Fn)
		if sig = types.SigOf(t); sig == nil {
			g.errorf(x.Pos, "called object is not a function")
			return g.constInt(0, intType), intType
		}
	}
	nfixed := len(sig.Params)
	if len(x.Args) < nfixed || (!sig.Variadic && len(x.Args) > nfixed) {
		g.errorf(x.Pos, "wrong number of arguments: have %d, want %d", len(x.Args), nfixed)
		return g.constInt(0, intType), intType
	}
	var args []ir.Value
	for i, ae := range x.Args {
		av, at := g.genExpr(ae)
		if i < nfixed {
			av = g.convert(av, at, sig.Params[i], x.Pos)
		}
		// A variadic integer argument is already its 8-byte slot value:
		// a canonical register holds the promoted value.
		args = append(args, av)
	}
	var res ir.Value = ir.NoValue
	rt := sig.Ret
	if rt.Kind != types.Void {
		res = g.fn.NewValue(rt.WithQual(g.gen.Fresh()))
	}
	if callee != nil {
		g.emit(&ir.Inst{Op: ir.OpCall, Callee: callee.Name, Args: args, Res: res, Pos: x.Pos})
	} else {
		g.emit(&ir.Inst{Op: ir.OpICall, Args: append([]ir.Value{fnVal}, args...), Res: res, Pos: x.Pos})
	}
	if res == ir.NoValue {
		return ir.NoValue, types.MakeVoid()
	}
	return res, g.fn.ValueType(res)
}

func (g *generator) genVaArg(x *minic.VaArg) (ir.Value, *types.Type) {
	// ap is an lvalue holding a char* cursor into the public vararg area.
	addr, elem, promoted, lv := g.lvalue(x.Ap)
	if elem == nil {
		return g.constInt(0, intType), intType
	}
	var cur ir.Value
	if promoted {
		cur = lv.vreg
	} else {
		cur, _ = g.loadFrom(addr, elem)
	}
	// Load the value: vararg slots are 8-byte public stack slots.
	slotTy := x.Type.WithQual(types.Public)
	rt := x.Type.WithQual(g.gen.Fresh())
	val := g.emitV(&ir.Inst{Op: ir.OpLoad, Args: []ir.Value{cur}, Ty: slotTy,
		Res: g.fn.NewValue(rt)})
	// Advance the cursor by 8.
	eight := g.constInt(8, longType)
	next := g.emitV(&ir.Inst{Op: ir.OpAdd, Args: []ir.Value{cur, eight},
		Res: g.fn.NewValue(g.fn.ValueType(cur))})
	if promoted {
		g.emit(&ir.Inst{Op: ir.OpCopy, Args: []ir.Value{next}, Res: lv.vreg})
	} else {
		g.emit(&ir.Inst{Op: ir.OpStore, Args: []ir.Value{addr, next}, Ty: elem})
	}
	return val, rt
}

// genAddr lowers an lvalue expression to (address value, element type).
func (g *generator) genAddr(e minic.Expr) (ir.Value, *types.Type, bool) {
	switch x := e.(type) {
	case *minic.Ident:
		if l := g.lookup(x.Name); l != nil {
			if l.alloca == nil {
				g.errorf(x.Pos, "cannot take the address of register variable %q (internal)", x.Name)
				return ir.NoValue, nil, false
			}
			return g.allocaAddr(l.alloca), l.ty, true
		}
		if glob := g.mod.Global(x.Name); glob != nil {
			pt := types.MakePtr(glob.Type, g.gen.Fresh())
			addr := g.emitV(&ir.Inst{Op: ir.OpGlobalAddr, Global: x.Name,
				Res: g.fn.NewValue(pt)})
			return addr, glob.Type, true
		}
		g.errorf(x.Pos, "undefined identifier %q", x.Name)
		return ir.NoValue, nil, false
	case *minic.Unary:
		if x.Op == "*" {
			v, t := g.genExpr(x.X)
			if t.Kind != types.Ptr {
				g.errorf(x.Pos, "cannot dereference non-pointer type %s", t)
				return ir.NoValue, nil, false
			}
			return v, t.Elem, true
		}
	case *minic.Index:
		bv, bt := g.genExpr(x.X)
		if bt.Kind != types.Ptr {
			g.errorf(x.Pos, "subscript of non-pointer type %s", bt)
			return ir.NoValue, nil, false
		}
		iv, _ := g.genExpr(x.I)
		av, _ := g.ptrOffset(bv, bt, iv, false)
		return av, bt.Elem, true
	case *minic.Member:
		var recAddr ir.Value
		var recTy *types.Type
		if x.Arrow {
			v, t := g.genExpr(x.X)
			if t.Kind != types.Ptr || !t.Elem.IsRecord() {
				g.errorf(x.Pos, "-> on non-record-pointer type %s", t)
				return ir.NoValue, nil, false
			}
			recAddr, recTy = v, t.Elem
		} else {
			a, t, ok := g.genAddr(x.X)
			if !ok {
				return ir.NoValue, nil, false
			}
			if !t.IsRecord() {
				g.errorf(x.Pos, ". on non-record type %s", t)
				return ir.NoValue, nil, false
			}
			recAddr, recTy = a, t
		}
		ft, off := recTy.FieldType(x.Name)
		if ft == nil {
			g.errorf(x.Pos, "no field %q in %s", x.Name, recTy)
			return ir.NoValue, nil, false
		}
		if off != 0 {
			c := g.constInt(int64(off), longType)
			pt := types.MakePtr(ft, g.gen.Fresh())
			recAddr = g.emitV(&ir.Inst{Op: ir.OpAdd, Args: []ir.Value{recAddr, c},
				Res: g.fn.NewValue(pt)})
		}
		return recAddr, ft, true
	case *minic.Cast:
		// (T*)lvalue as store target: compute the inner address, retype.
		if x.Type.Kind == types.Ptr {
			a, _, ok := g.genAddr(x.X)
			if !ok {
				return ir.NoValue, nil, false
			}
			return a, x.Type.Elem, true
		}
	}
	g.errorf(e.Position(), "expression is not an lvalue")
	return ir.NoValue, nil, false
}

// fits reports whether converting a from value to type to leaves its
// canonical register (see ir.OpTrunc) unchanged: to is 8 bytes wide, or
// every from value is a to value.
func fits(from, to *types.Type) bool {
	if to.Size >= 8 || from.Signed == to.Signed {
		return to.Size >= from.Size
	}
	return to.Signed && to.Size > from.Size
}

// convert applies implicit conversion from type `from` to `to`. An
// integer (or pointer) conversion emits one trunc exactly when it changes
// the canonical register: on narrowing, and from a signed type to an
// unsigned one narrower than 8 bytes. Widening is otherwise free.
func (g *generator) convert(v ir.Value, from, to *types.Type, pos minic.Pos) ir.Value {
	if from == nil || to == nil || to.Kind == types.Void {
		return v
	}
	switch {
	case to.IsInteger() && (from.IsInteger() || from.Kind == types.Ptr && to.Size < 8):
		if from.IsInteger() && fits(from, to) {
			return v
		}
		return g.normalize(v, to.WithQual(g.gen.Fresh()))
	case from.IsInteger() && to.Kind == types.Float:
		return g.toFloat(v, from)
	case from.Kind == types.Float && to.IsInteger():
		return g.emitV(&ir.Inst{Op: ir.OpFPToInt, Args: []ir.Value{v}, Ty: to,
			Res: g.fn.NewValue(to.WithQual(g.gen.Fresh()))})
	case from.Kind == types.Ptr && to.Kind == types.Ptr:
		// Implicit pointer conversion keeps the source type: the taint
		// constraints between pointee qualifiers are generated at the
		// consumer (store/call) and enforce equality.
		return v
	case from.IsInteger() && to.Kind == types.Ptr:
		return g.emitV(&ir.Inst{Op: ir.OpBitcast, Args: []ir.Value{v}, Ty: to,
			Res: g.fn.NewValue(to)})
	case from.Kind == types.Ptr && to.IsInteger():
		return g.emitV(&ir.Inst{Op: ir.OpBitcast, Args: []ir.Value{v}, Ty: to,
			Res: g.fn.NewValue(to.WithQual(g.gen.Fresh()))})
	}
	return v
}

// convertExplicit applies a C cast: unlike implicit conversion, pointer
// casts adopt the target type wholesale, deliberately severing the pointee
// qualifier linkage (the runtime checks still protect confidentiality —
// this is the Minizip scenario from the paper's §7.6).
func (g *generator) convertExplicit(v ir.Value, from, to *types.Type, pos minic.Pos) ir.Value {
	if from.Kind == types.Ptr && to.Kind == types.Ptr {
		return g.emitV(&ir.Inst{Op: ir.OpBitcast, Args: []ir.Value{v}, Ty: to,
			Res: g.fn.NewValue(to)})
	}
	return g.convert(v, from, to, pos)
}
