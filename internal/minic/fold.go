package minic

import (
	"math"

	"confllvm/internal/types"
)

// Const is the value of a constant expression in its C type: an integer
// in its type's canonical 64-bit form (sign-extended from the type's width
// when signed, zero-extended when not, as ir.OpTrunc defines it), or a
// double.
type Const struct {
	Type  *types.Type // an integer type or double
	Int   int64
	Float float64
}

// The types constant expressions take: an integer literal is an int when
// it fits one and a long otherwise, and sizeof is a long, as irgen types
// them.
var (
	constInt    = types.MakeInt(4, true, types.Public)
	constLong   = types.MakeInt(8, true, types.Public)
	constULong  = types.MakeInt(8, false, types.Public)
	constDouble = types.MakeFloat(types.Public)
)

// canon reduces v to t's width and re-extends it by t's signedness.
func canon(t *types.Type, v int64) int64 {
	if t.Size >= 8 {
		return v
	}
	shift := uint(64 - 8*t.Size)
	if t.Signed {
		return v << shift >> shift
	}
	return int64(uint64(v) << shift >> shift)
}

func intConst(t *types.Type, v int64) Const { return Const{Type: t, Int: canon(t, v)} }

func boolConst(b bool) Const {
	if b {
		return Const{Type: constInt, Int: 1}
	}
	return Const{Type: constInt}
}

// To converts c to type t as C's conversions do. A pointer type (or any
// other non-arithmetic type) takes the 64-bit integer value.
func (c Const) To(t *types.Type) Const {
	switch {
	case t.Kind == types.Float && c.Type.Kind == types.Float:
		return c
	case t.Kind == types.Float && c.Type.Signed:
		return Const{Type: t, Float: float64(c.Int)}
	case t.Kind == types.Float:
		return Const{Type: t, Float: float64(uint64(c.Int))}
	case t.Kind != types.Int:
		t = constULong
	}
	if c.Type.Kind != types.Float {
		return intConst(t, c.Int)
	}
	if !t.Signed && c.Float >= math.MaxInt64 {
		return intConst(t, int64(uint64(c.Float)))
	}
	return intConst(t, int64(c.Float))
}

func (c Const) isZero() bool {
	if c.Type.Kind == types.Float {
		return c.Float == 0
	}
	return c.Int == 0
}

// FoldConst evaluates a constant expression (an array length or a global
// initializer) with C's conversions and arithmetic in each operand's type,
// so that it yields what the same expression computes at run time. It
// reports false for an expression that is not constant, and for a
// division by zero or of the least long by -1.
func FoldConst(e Expr) (Const, bool) {
	switch x := e.(type) {
	case *IntLit:
		if x.Val > math.MaxInt32 || x.Val < math.MinInt32 {
			return Const{Type: constLong, Int: x.Val}, true
		}
		return Const{Type: constInt, Int: x.Val}, true
	case *FloatLit:
		return Const{Type: constDouble, Float: x.Val}, true
	case *SizeofType:
		return Const{Type: constLong, Int: int64(x.Type.SizeOf())}, true
	case *Cast:
		c, ok := FoldConst(x.X)
		if !ok || x.Type.Kind == types.Void || x.Type.IsRecord() {
			return Const{}, false
		}
		return c.To(x.Type), true
	case *Unary:
		c, ok := FoldConst(x.X)
		if !ok {
			return Const{}, false
		}
		switch {
		case x.Op == "!":
			return boolConst(c.isZero()), true
		case x.Op == "-" && c.Type.Kind == types.Float:
			return Const{Type: constDouble, Float: -c.Float}, true
		case c.Type.Kind == types.Float:
		case x.Op == "-":
			t := types.Promote(c.Type, c.Type, types.Public)
			return intConst(t, -c.To(t).Int), true
		case x.Op == "~":
			t := types.Promote(c.Type, c.Type, types.Public)
			return intConst(t, ^c.To(t).Int), true
		}
	case *Binary:
		a, ok1 := FoldConst(x.X)
		b, ok2 := FoldConst(x.Y)
		if !ok1 || !ok2 {
			return Const{}, false
		}
		return foldBinary(x.Op, a, b)
	}
	return Const{}, false
}

func foldBinary(op string, a, b Const) (Const, bool) {
	switch op {
	case "&&":
		return boolConst(!a.isZero() && !b.isZero()), true
	case "||":
		return boolConst(!a.isZero() || !b.isZero()), true
	}
	if a.Type.Kind == types.Float || b.Type.Kind == types.Float {
		fa, fb := a.To(constDouble).Float, b.To(constDouble).Float
		switch op {
		case "+":
			return Const{Type: constDouble, Float: fa + fb}, true
		case "-":
			return Const{Type: constDouble, Float: fa - fb}, true
		case "*":
			return Const{Type: constDouble, Float: fa * fb}, true
		case "/":
			return Const{Type: constDouble, Float: fa / fb}, true
		case "==":
			return boolConst(fa == fb), true
		case "!=":
			return boolConst(fa != fb), true
		case "<":
			return boolConst(fa < fb), true
		case "<=":
			return boolConst(fa <= fb), true
		case ">":
			return boolConst(fa > fb), true
		case ">=":
			return boolConst(fa >= fb), true
		}
		return Const{}, false
	}
	if op == "<<" || op == ">>" {
		// A shift has its promoted left operand's type.
		t := types.Promote(a.Type, a.Type, types.Public)
		v, n := a.To(t).Int, uint(b.Int&63)
		switch {
		case op == "<<":
			return intConst(t, v<<n), true
		case t.Signed:
			return intConst(t, v>>n), true
		}
		return intConst(t, int64(uint64(v)>>n)), true
	}
	t := types.Promote(a.Type, b.Type, types.Public)
	va, vb := a.To(t).Int, b.To(t).Int
	ua, ub := uint64(va), uint64(vb)
	switch op {
	case "+":
		return intConst(t, va+vb), true
	case "-":
		return intConst(t, va-vb), true
	case "*":
		return intConst(t, va*vb), true
	case "&":
		return intConst(t, va&vb), true
	case "|":
		return intConst(t, va|vb), true
	case "^":
		return intConst(t, va^vb), true
	case "/", "%":
		if vb == 0 || t.Signed && va == math.MinInt64 && vb == -1 {
			return Const{}, false
		}
		switch {
		case op == "/" && t.Signed:
			return intConst(t, va/vb), true
		case op == "/":
			return intConst(t, int64(ua/ub)), true
		case t.Signed:
			return intConst(t, va%vb), true
		}
		return intConst(t, int64(ua%ub)), true
	case "==":
		return boolConst(va == vb), true
	case "!=":
		return boolConst(va != vb), true
	case "<":
		return boolConst(t.Signed && va < vb || !t.Signed && ua < ub), true
	case "<=":
		return boolConst(t.Signed && va <= vb || !t.Signed && ua <= ub), true
	case ">":
		return boolConst(t.Signed && va > vb || !t.Signed && ua > ub), true
	case ">=":
		return boolConst(t.Signed && va >= vb || !t.Signed && ua >= ub), true
	}
	return Const{}, false
}
