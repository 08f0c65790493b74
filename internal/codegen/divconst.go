package codegen

import (
	"math"
	"math/bits"

	"confllvm/internal/asm"
)

// Division by a compile-time constant (Granlund & Montgomery, "Division
// by Invariant Integers using Multiplication", PLDI 1994; Warren,
// Hacker's Delight, ch. 10). Prepass rewrite 1 gives a div or mod the RI
// form when planDiv has a plan for its constant divisor, and lowerDiv
// expands the plan into a branch-free multiply/shift sequence instead of
// mov r, c; idiv. Branch-free matters beyond speed: the sequence never
// branches on the (possibly private) dividend, so strict mode sees no
// new implicit flow.
//
// Every integer register holds its type's canonical 64-bit value, so a
// dividend of 32 bits or fewer lies in [-2^31, 2^31) when signed and in
// [0, 2^32) when unsigned, and a 64-bit imul by a magic number of at
// most 2^32 cannot overflow. A signed 64-bit dividend needs the high
// half of a 128-bit product, which mulh provides. An unsigned 64-bit
// dividend has no magic path (its product would need an unsigned high
// half), so only powers of two leave its div/mod.

// divKind selects a division strategy.
type divKind uint8

const (
	divPow2U    divKind = iota + 1 // c = 2^k, unsigned or c = 1: shr / and
	divPow2S                       // signed, |c| = 2^k, k >= 1: shifts with a sign bias
	divMagic32U                    // unsigned, <= 32 bits: imul by a magic < 2^32, shr
	divMagic32S                    // signed, <= 32 bits: imul by a magic <= 2^32, sar, sign fix
	divMagic64S                    // signed, 64 bits: mulh by a magic, sar, sign fix
)

// divPlan is how to divide by one constant: the strategy and the numbers
// it needs.
type divPlan struct {
	kind    divKind
	abs     uint64 // |c|
	neg     bool   // signed c < 0: the quotient is negated
	k       uint   // log2 |c| for the power-of-two strategies
	magic   int64  // the multiplier (mulh's reading of it for divMagic64S)
	shift   uint   // right shift of the product (of its high half for mulh)
	addBack bool   // divMagic64S: the magic is >= 2^63, so mulh adds the dividend back
}

// planDiv returns the plan for dividing a size-byte integer (signed or
// not) by the constant c, or false when the division stays a div/mod
// instruction: c is 0, or -1 or INT64_MIN when signed (so #DE still
// fires on a zero divisor and on INT64_MIN / -1), c is not a canonical
// constant of the dividend's width, or an unsigned divisor needs a magic
// the strategies cannot use.
func planDiv(c int64, size int, signed bool) (divPlan, bool) {
	narrow := size < 8
	switch {
	case c == 0:
		return divPlan{}, false
	case signed && (c == -1 || c == math.MinInt64):
		return divPlan{}, false
	case signed && narrow && c != int64(int32(c)):
		return divPlan{}, false
	case !signed && narrow && uint64(c) > math.MaxUint32:
		return divPlan{}, false
	}
	p := divPlan{abs: uint64(c)}
	if signed && c < 0 {
		p.abs, p.neg = uint64(-c), true
	}
	if p.abs&(p.abs-1) == 0 {
		p.k = uint(bits.TrailingZeros64(p.abs))
		p.kind = divPow2U
		if signed && p.k > 0 {
			p.kind = divPow2S
		}
		return p, true
	}
	switch {
	case signed && narrow:
		m, sh := signedMagic(p.abs, 32)
		p.kind, p.magic, p.shift = divMagic32S, int64(m), sh
	case signed:
		m, sh := signedMagic(p.abs, 64)
		p.kind, p.magic, p.shift = divMagic64S, int64(m), sh-64
		p.addBack = p.magic < 0
	case narrow:
		m, sh, ok := unsignedMagic32(p.abs)
		if !ok {
			return divPlan{}, false
		}
		p.kind, p.magic, p.shift = divMagic32U, int64(m), sh
	default:
		return divPlan{}, false
	}
	return p, true
}

// signedMagic returns the least multiplier m and shift s with
// trunc(n/d) = floor(n*m / 2^s) + (1 if n < 0) for every n-bit signed n
// (Granlund & Montgomery, Theorem 5.1: 2^s < m*d <= 2^s + 2^(s-n+1)).
// d >= 3 is not a power of two, and below 2^(n-1).
func signedMagic(d uint64, n uint) (uint64, uint) {
	for l := uint(1); ; l++ {
		s := n - 1 + l
		m, e := ceilPow2Div(s, d)
		if e <= 1<<l {
			return m, s
		}
	}
}

// unsignedMagic32 returns the least multiplier m and shift s with
// floor(n/d) = floor(n*m / 2^s) for every n below 2^32 (Theorem 4.2:
// 2^s <= m*d <= 2^s + 2^(s-32)), or false when that m does not fit in
// 32 bits, which a 64-bit product of a 32-bit dividend needs.
func unsignedMagic32(d uint64) (uint64, uint, bool) {
	for l := uint(0); l < 32; l++ {
		s := 32 + l
		m, e := ceilPow2Div(s, d)
		if e <= 1<<l {
			return m, s, m <= math.MaxUint32
		}
	}
	return 0, 0, false
}

// ceilPow2Div returns ceil(2^s / d) and its excess ceil(2^s/d)*d - 2^s,
// for a d that is not a power of two and 2^s / d below 2^64.
func ceilPow2Div(s uint, d uint64) (uint64, uint64) {
	var hi, lo uint64
	if s >= 64 {
		hi = 1 << (s - 64)
	} else {
		lo = 1 << s
	}
	q, r := bits.Div64(hi, lo, d)
	return q + 1, d - r
}

// needsDividend reports whether the sequence reads the dividend again
// after it first writes the result register.
func (p divPlan) needsDividend(mod bool) bool {
	switch p.kind {
	case divMagic32U, divMagic32S:
		return mod
	case divMagic64S:
		return mod || p.addBack
	}
	return false
}

// emit appends the sequence computing d = a / c (a % c when mod) to
// out. t is a scratch register, u a second one or asm.NoReg; neither is
// d or a. Only d, t and u are written. It returns false, appending
// nothing, when the plan needs the dividend after writing d, d is a,
// and there is no u to keep it in.
func (p divPlan) emit(out []asm.Inst, mod bool, d, a, t, u asm.Reg) ([]asm.Inst, bool) {
	op := func(o asm.Op, dst asm.Reg, imm int64) { out = append(out, asm.Inst{Op: o, Dst: dst, Imm: imm}) }
	rr := func(o asm.Op, dst, src asm.Reg) { out = append(out, asm.Inst{Op: o, Dst: dst, Src: src}) }
	x := a // holds the dividend to the end
	if d == a && p.needsDividend(mod) {
		if u == asm.NoReg {
			return out, false
		}
		rr(asm.OpMovRR, u, a)
		x = u
	}
	// bias = 2^k - 1 when x < 0, else 0: x's sign spread over the word,
	// shifted down to k bits (for k = 1, x's sign bit alone).
	bias := func(b asm.Reg) {
		rr(asm.OpMovRR, b, a)
		if p.k > 1 {
			op(asm.OpSarRI, b, 63)
		}
		op(asm.OpShrRI, b, int64(64-p.k))
	}
	if p.kind == divPow2S && mod {
		// r = ((x + bias) & (2^k - 1)) - bias.
		bias(t)
		if d != a {
			rr(asm.OpMovRR, d, a)
		}
		rr(asm.OpAddRR, d, t)
		op(asm.OpAndRI, d, int64(p.abs-1))
		rr(asm.OpSubRR, d, t)
		return out, true
	}
	if p.kind == divPow2S {
		// q = (x + bias) >> k, computing the bias in d when a keeps x.
		b := t
		if d != a {
			b = d
		}
		bias(b)
		if b == d {
			rr(asm.OpAddRR, d, a)
		} else {
			rr(asm.OpAddRR, d, t)
		}
		op(asm.OpSarRI, d, int64(p.k))
		if p.neg {
			out = append(out, asm.Inst{Op: asm.OpNeg, Dst: d})
		}
		return out, true
	}
	if d != a {
		rr(asm.OpMovRR, d, a)
	}
	switch p.kind {
	case divPow2U:
		if mod {
			op(asm.OpAndRI, d, int64(p.abs-1))
		} else {
			op(asm.OpShrRI, d, int64(p.k))
		}
		return out, true
	case divMagic32U:
		op(asm.OpMulRI, d, p.magic)
		op(asm.OpShrRI, d, int64(p.shift))
	case divMagic32S, divMagic64S:
		if p.kind == divMagic32S {
			op(asm.OpMulRI, d, p.magic)
		} else {
			op(asm.OpMulHiRI, d, p.magic)
			if p.addBack {
				rr(asm.OpAddRR, d, x)
			}
		}
		if p.shift != 0 {
			op(asm.OpSarRI, d, int64(p.shift))
		}
		// floor(x*m / 2^s) is negative exactly when x is, and then one
		// below the truncated quotient: add its sign bit.
		rr(asm.OpMovRR, t, d)
		op(asm.OpShrRI, t, 63)
		rr(asm.OpAddRR, d, t)
		if p.neg && !mod {
			out = append(out, asm.Inst{Op: asm.OpNeg, Dst: d})
		}
	}
	if mod {
		// r = x - q*|c|: C's remainder takes the dividend's sign.
		op(asm.OpMulRI, d, -int64(p.abs))
		rr(asm.OpAddRR, d, x)
	}
	return out, true
}
