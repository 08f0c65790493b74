// Package types implements ConfLLVM's qualified C type system: every type
// carries a confidentiality qualifier (public or private), and qualifiers
// may be inference variables that the taint solver resolves.
//
// The qualifier conventions follow the paper (§5.1):
//
//   - `private int x`          — the int is private;
//   - `private int *p`         — a *public* pointer to a private int;
//   - struct/union fields inherit their *outermost* qualifier from the
//     struct-typed variable, so every object is laid out entirely in one
//     region.
package types

import (
	"fmt"
	"strings"
)

// Qual is a confidentiality qualifier term. Non-negative values are
// inference-variable indices; the two negative constants are the concrete
// lattice points.
type Qual int32

const (
	// Public is the low (L) lattice point: data that may flow anywhere.
	Public Qual = -1
	// Private is the high (H) lattice point: data confined to the
	// private region.
	Private Qual = -2
)

// IsVar reports whether q is an inference variable.
func (q Qual) IsVar() bool { return q >= 0 }

func (q Qual) String() string {
	switch q {
	case Public:
		return "public"
	case Private:
		return "private"
	}
	return fmt.Sprintf("q%d", int32(q))
}

// Kind discriminates types.
type Kind uint8

const (
	Void   Kind = iota
	Int         // integer of Size bytes, Signed or not
	Float       // float64 ("double")
	Ptr         // pointer to Elem
	Array       // Len elements of Elem
	Struct      // record with Fields
	Union       // overlay with Fields
	Func        // function type (only behind pointers or as decl type)
)

// Field is a struct or union member.
type Field struct {
	Name   string
	Type   *Type
	Offset int // byte offset (0 for union members)
}

// FuncSig is a function signature.
type FuncSig struct {
	Params   []*Type
	Ret      *Type
	Variadic bool
}

// Type is a qualified C type. Types are treated as immutable after
// construction; use Clone/WithQual to derive variants.
type Type struct {
	Kind   Kind
	Qual   Qual // qualifier of values of this type
	Size   int  // Int: 1/2/4/8
	Signed bool
	Elem   *Type   // Ptr, Array
	Len    int     // Array
	Name   string  // Struct/Union tag
	Fields []Field // Struct/Union
	Sig    *FuncSig
	size   int // cached layout size for records
	align  int
}

// Constructors.

// MakeVoid returns the void type.
func MakeVoid() *Type { return &Type{Kind: Void, Qual: Public} }

// MakeInt returns an integer type of the given width.
func MakeInt(size int, signed bool, q Qual) *Type {
	return &Type{Kind: Int, Size: size, Signed: signed, Qual: q}
}

// MakeFloat returns the double type.
func MakeFloat(q Qual) *Type { return &Type{Kind: Float, Size: 8, Qual: q} }

// MakePtr returns a pointer type. The pointer value's own qualifier is q;
// the region it must point into is determined by elem.Qual.
func MakePtr(elem *Type, q Qual) *Type { return &Type{Kind: Ptr, Elem: elem, Qual: q} }

// MakeArray returns an array type. The array's qualifier is its element's
// outermost qualifier (objects are uniform).
func MakeArray(elem *Type, n int) *Type {
	return &Type{Kind: Array, Elem: elem, Len: n, Qual: elem.Qual}
}

// MakeFunc returns a function type.
func MakeFunc(sig *FuncSig) *Type { return &Type{Kind: Func, Sig: sig, Qual: Public} }

// Clone returns a shallow copy of t.
func (t *Type) Clone() *Type {
	c := *t
	return &c
}

// WithQual returns a copy of t whose outermost qualifier is q. For arrays
// the element qualifier is rewritten too (objects are uniform); for
// structs/unions the qualifier applies to all fields' outermost level at
// access time (see FieldType).
func (t *Type) WithQual(q Qual) *Type {
	c := t.Clone()
	c.Qual = q
	if t.Kind == Array {
		c.Elem = t.Elem.WithQual(q)
	}
	return c
}

// IsInteger reports whether t is an integer type.
func (t *Type) IsInteger() bool { return t != nil && t.Kind == Int }

// IsRecord reports whether t is a struct or union.
func (t *Type) IsRecord() bool { return t != nil && (t.Kind == Struct || t.Kind == Union) }

// FieldType returns the type of the named field as seen through a value of
// this record type: the field's outermost qualifier is inherited from the
// record's qualifier (the paper's uniform-object rule). It returns nil if
// the field does not exist.
func (t *Type) FieldType(name string) (*Type, int) {
	for _, f := range t.Fields {
		if f.Name == name {
			return f.Type.WithQual(t.Qual), f.Offset
		}
	}
	return nil, 0
}

// Align returns the alignment of t in bytes.
func (t *Type) Align() int {
	switch t.Kind {
	case Int:
		return t.Size
	case Float, Ptr, Func:
		return 8
	case Array:
		return t.Elem.Align()
	case Struct, Union:
		if t.align == 0 {
			t.layout()
		}
		return t.align
	}
	return 1
}

// SizeOf returns the size of t in bytes (pointers are 8).
func (t *Type) SizeOf() int {
	switch t.Kind {
	case Void:
		return 0
	case Int:
		return t.Size
	case Float:
		return 8
	case Ptr, Func:
		return 8
	case Array:
		return t.Elem.SizeOf() * t.Len
	case Struct, Union:
		if t.size == 0 {
			t.layout()
		}
		return t.size
	}
	return 0
}

func align(n, a int) int {
	if a <= 1 {
		return n
	}
	return (n + a - 1) / a * a
}

// layout assigns field offsets and computes size/alignment for records.
func (t *Type) layout() {
	maxAlign := 1
	off := 0
	size := 0
	for i := range t.Fields {
		f := &t.Fields[i]
		a := f.Type.Align()
		if a > maxAlign {
			maxAlign = a
		}
		if t.Kind == Struct {
			off = align(off, a)
			f.Offset = off
			off += f.Type.SizeOf()
		} else { // Union: all fields at offset 0
			f.Offset = 0
			if s := f.Type.SizeOf(); s > size {
				size = s
			}
		}
	}
	if t.Kind == Struct {
		size = align(off, maxAlign)
	} else {
		size = align(size, maxAlign)
	}
	if size == 0 {
		size = 1 // empty records occupy one byte, as in C
	}
	t.size = size
	t.align = maxAlign
}

// Layout forces record layout computation (used after parsing).
func (t *Type) Layout() { t.layout() }

func (t *Type) String() string {
	if t == nil {
		return "<nil>"
	}
	var b strings.Builder
	if t.Qual == Private {
		b.WriteString("private ")
	} else if t.Qual.IsVar() {
		fmt.Fprintf(&b, "%s ", t.Qual)
	}
	switch t.Kind {
	case Void:
		b.WriteString("void")
	case Int:
		if !t.Signed {
			b.WriteString("u")
		}
		fmt.Fprintf(&b, "int%d", t.Size*8)
	case Float:
		b.WriteString("double")
	case Ptr:
		fmt.Fprintf(&b, "%s*", t.Elem)
	case Array:
		fmt.Fprintf(&b, "%s[%d]", t.Elem, t.Len)
	case Struct:
		fmt.Fprintf(&b, "struct %s", t.Name)
	case Union:
		fmt.Fprintf(&b, "union %s", t.Name)
	case Func:
		b.WriteString("fn(")
		for i, p := range t.Sig.Params {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(p.String())
		}
		if t.Sig.Variadic {
			b.WriteString(", ...")
		}
		fmt.Fprintf(&b, ") %s", t.Sig.Ret)
	}
	return b.String()
}

// Promote returns the usual arithmetic conversions' common type of two
// integer types, qualified q: at least int, and unsigned when an operand
// of the common width is.
func Promote(a, b *Type, q Qual) *Type {
	size := max(a.Size, b.Size, 4)
	signed := !(a.Size == size && !a.Signed || b.Size == size && !b.Signed)
	return MakeInt(size, signed, q)
}

// Decay converts array types to pointers to their element (C decay).
func Decay(t *Type) *Type {
	if t != nil && t.Kind == Array {
		return MakePtr(t.Elem, Public)
	}
	return t
}

// SigOf returns the signature of a function type or of a pointer to one,
// and nil for any other type.
func SigOf(t *Type) *FuncSig {
	if t != nil && t.Kind == Ptr {
		t = t.Elem
	}
	if t == nil || t.Kind != Func {
		return nil
	}
	return t.Sig
}

// SameShape reports whether two types have identical shapes ignoring
// qualifiers (used for cast classification and diagnostics, not for
// enforcement — enforcement is via constraints and runtime checks).
func SameShape(a, b *Type) bool { return same(a, b, false) }

// SameDecl reports whether two declarations of one function agree, as C
// requires of a redeclaration: the same shape, with `private` written at
// the same levels.
func SameDecl(a, b *FuncSig) bool { return sameSig(a, b, true) }

// same compares the shapes of a and b and, if quals is set, where each
// says `private`.
func same(a, b *Type, quals bool) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Kind != b.Kind || quals && (a.Qual == Private) != (b.Qual == Private) {
		return false
	}
	switch a.Kind {
	case Int:
		return a.Size == b.Size && a.Signed == b.Signed
	case Ptr, Array:
		return same(a.Elem, b.Elem, quals) && a.Len == b.Len
	case Struct, Union:
		return a.Name == b.Name
	case Func:
		return sameSig(a.Sig, b.Sig, quals)
	}
	return true
}

func sameSig(a, b *FuncSig, quals bool) bool {
	if len(a.Params) != len(b.Params) || a.Variadic != b.Variadic {
		return false
	}
	for i := range a.Params {
		if !same(a.Params[i], b.Params[i], quals) {
			return false
		}
	}
	return same(a.Ret, b.Ret, quals)
}
