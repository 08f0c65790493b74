package codegen

import (
	"math"
	"math/rand"
	"testing"

	"confllvm/internal/asm"
	"confllvm/internal/machine"
	"confllvm/internal/types"
)

// divRunner executes one emitted division sequence with
// machine.Thread.Step, the reference semantics.
type divRunner struct {
	th    *machine.Thread
	steps int
}

const divCodeBase = 0x1000

func newDivRunner(t testing.TB, seq []asm.Inst) *divRunner {
	t.Helper()
	m := machine.New(machine.DefaultConfig())
	var code []byte
	for _, in := range seq {
		code = asm.Encode(code, in)
	}
	code = asm.Encode(code, asm.Inst{Op: asm.OpExit})
	if _, err := m.Mem.Map("code", divCodeBase, 0x1000, machine.PermR|machine.PermX); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Mem.Map("data", 0x100000, 0x10000, machine.PermR|machine.PermW); err != nil {
		t.Fatal(err)
	}
	if f := m.Mem.WriteBytesUnchecked(divCodeBase, code); f != nil {
		t.Fatal(f)
	}
	return &divRunner{th: m.NewThread(divCodeBase, 0x108000, 0x100000, 0x110000), steps: len(seq)}
}

// run sets every register to a distinct junk value, the dividend
// register to x, executes the sequence and returns the register file.
func (r *divRunner) run(t testing.TB, a asm.Reg, x uint64) [asm.NumRegs]uint64 {
	t.Helper()
	th := r.th
	th.PC = divCodeBase
	for i := range th.Regs {
		th.Regs[i] = 0x5a5a5a5a00000000 | uint64(i)
	}
	th.Regs[a] = x
	for range r.steps {
		if f := th.Step(); f != nil {
			t.Fatalf("fault %v", f)
		}
	}
	return th.Regs
}

// canon returns v's canonical register form for a width-byte integer.
func canon(v int64, width int, signed bool) int64 {
	return truncConst(&types.Type{Kind: types.Int, Size: width, Signed: signed}, v)
}

// goDiv is Go's / and % on width-byte integers of the given signedness,
// returned in canonical register form.
func goDiv(x, c int64, width int, signed bool) (q, r int64) {
	switch {
	case signed && width == 1:
		return int64(int8(x) / int8(c)), int64(int8(x) % int8(c))
	case signed && width == 2:
		return int64(int16(x) / int16(c)), int64(int16(x) % int16(c))
	case signed && width == 4:
		return int64(int32(x) / int32(c)), int64(int32(x) % int32(c))
	case signed:
		return x / c, x % c
	case width == 1:
		return int64(uint8(x) / uint8(c)), int64(uint8(x) % uint8(c))
	case width == 2:
		return int64(uint16(x) / uint16(c)), int64(uint16(x) % uint16(c))
	case width == 4:
		return int64(uint32(x) / uint32(c)), int64(uint32(x) % uint32(c))
	}
	return int64(uint64(x) / uint64(c)), int64(uint64(x) % uint64(c))
}

// divRegs are the register assignments a lowering can hand emit: the
// result apart from the dividend, and in place with and without the
// second scratch.
var divRegs = []struct {
	name       string
	d, a, t, u asm.Reg
}{
	{"apart", asm.RBX, asm.RSI, asm.R11, asm.R10},
	{"in-place", asm.RDI, asm.RDI, asm.R11, asm.R10},
	{"in-place-no-u", asm.R10, asm.R10, asm.R11, asm.NoReg},
}

// checkDivConst runs every register assignment of c's plan over the
// dividends and compares with Go. It reports the plan's kind, or 0 when
// planDiv keeps the division.
func checkDivConst(t testing.TB, c int64, width int, signed bool, dividends []int64) divKind {
	t.Helper()
	p, ok := planDiv(c, width, signed)
	if !ok {
		return 0
	}
	for _, mod := range []bool{false, true} {
		for _, rg := range divRegs {
			seq, ok := p.emit(nil, mod, rg.d, rg.a, rg.t, rg.u)
			if !ok {
				if rg.u != asm.NoReg || rg.d != rg.a || !p.needsDividend(mod) {
					t.Fatalf("c=%d w=%d signed=%v mod=%v %s: emit refused", c, width, signed, mod, rg.name)
				}
				continue
			}
			run := newDivRunner(t, seq)
			for _, x := range dividends {
				x = canon(x, width, signed)
				q, r := goDiv(x, c, width, signed)
				want := q
				if mod {
					want = r
				}
				regs := run.run(t, rg.a, uint64(x))
				if int64(regs[rg.d]) != want {
					t.Fatalf("c=%d w=%d signed=%v mod=%v %s: x=%d gives %d, want %d\n%v",
						c, width, signed, mod, rg.name, x, int64(regs[rg.d]), want, seq)
				}
				for reg := asm.Reg(0); reg < asm.NumRegs; reg++ {
					if reg != rg.d && reg != rg.t && reg != rg.u && regs[reg] != 0x5a5a5a5a00000000|uint64(reg) &&
						!(reg == rg.a && rg.a != rg.d && regs[reg] == uint64(x)) {
						t.Fatalf("c=%d %s: sequence wrote %v\n%v", c, rg.name, reg, seq)
					}
				}
			}
		}
	}
	return p.kind
}

// TestDivPlanAgainstGo checks every strategy's emitted sequence, run by
// machine.Thread.Step, against Go's / and % for every integer width,
// signed and unsigned, over divisors 2^k, 3, 5, 7, 10, 12, 17, 100, 255,
// 1000, 8191, 1000000007 and INT32_MAX of both signs, and dividends at
// and next to each type's limits.
func TestDivPlanAgainstGo(t *testing.T) {
	base := []int64{3, 5, 7, 10, 12, 17, 100, 255, 1000, 8191, 1000000007, math.MaxInt32}
	for k := 0; k < 63; k++ {
		base = append(base, int64(1)<<k)
	}
	rng := rand.New(rand.NewSource(28))
	seen := map[divKind]bool{}
	for _, width := range []int{1, 2, 4, 8} {
		for _, signed := range []bool{true, false} {
			bitsW := 8 * width
			var lo, hi int64 // the type's limits, in canonical form
			if signed {
				lo, hi = -1<<(bitsW-1), 1<<(bitsW-1)-1
			} else {
				lo, hi = 0, canon(-1, width, false)
			}
			dividends := []int64{0, 1, 2, -1, -2, lo, lo + 1, lo + 2, hi, hi - 1, hi - 2, hi / 2, lo / 2}
			for range 64 {
				dividends = append(dividends, int64(rng.Uint64()))
			}
			divisors := append([]int64{}, base...)
			if !signed && width == 8 {
				divisors = append(divisors, math.MinInt64) // 2^63
			}
			for _, c := range divisors {
				for _, sc := range []int64{c, -c} {
					if sc != canon(sc, width, signed) || sc == 0 {
						continue // not a constant of this type
					}
					ds := dividends
					// Multiples of the divisor and their neighbours.
					for _, m := range []int64{1, 2, 3, 1000} {
						ds = append(ds, sc*m, sc*m+1, sc*m-1, -sc*m, -sc*m+1, -sc*m-1)
					}
					if kind := checkDivConst(t, sc, width, signed, ds); kind != 0 {
						seen[kind] = true
					}
				}
			}
		}
	}
	for _, kind := range []divKind{divPow2U, divPow2S, divMagic32U, divMagic32S, divMagic64S} {
		if !seen[kind] {
			t.Errorf("strategy %d never planned", kind)
		}
	}
}

// TestDivPlanKeepsFaultingDivisors: the divisors whose idiv can raise
// #DE (0, and -1 and INT64_MIN when signed) keep their div/mod, and so
// does an unsigned 64-bit non-power of two and a divisor that is not a
// constant of the dividend's width.
func TestDivPlanKeepsFaultingDivisors(t *testing.T) {
	for _, tc := range []struct {
		c      int64
		width  int
		signed bool
	}{
		{0, 8, true}, {0, 4, false}, {-1, 8, true}, {-1, 4, true}, {-1, 1, true},
		{math.MinInt64, 8, true}, {7, 8, false}, {1000, 8, false}, {-1, 8, false},
		{1 << 32, 4, true}, {1 << 32, 4, false}, {-1, 4, false},
	} {
		if p, ok := planDiv(tc.c, tc.width, tc.signed); ok {
			t.Errorf("planDiv(%d, %d, %v) = %+v, want no plan", tc.c, tc.width, tc.signed, p)
		}
	}
	// A magic that needs 33 bits keeps an unsigned 32-bit div (7 does),
	// one that fits takes the multiply (3 does).
	if _, ok := planDiv(7, 4, false); ok {
		t.Error("unsigned 32-bit / 7 needs a 33-bit magic and must stay div")
	}
	if p, ok := planDiv(3, 4, false); !ok || p.kind != divMagic32U {
		t.Errorf("unsigned 32-bit / 3: plan %+v", p)
	}
}

// TestDivPlanShapes pins the sequences of the kernels' hot divisors:
// no branch, and no divide.
func TestDivPlanShapes(t *testing.T) {
	for _, tc := range []struct {
		c      int64
		width  int
		signed bool
		mod    bool
		want   []asm.Op
	}{
		// libquantum's long / 2: sign bit as the bias, add, shift.
		{2, 8, true, false, []asm.Op{asm.OpMovRR, asm.OpShrRI, asm.OpAddRR, asm.OpSarRI}},
		// A wider power of two spreads the sign first.
		{-16, 4, true, false, []asm.Op{asm.OpMovRR, asm.OpSarRI, asm.OpShrRI, asm.OpAddRR, asm.OpSarRI, asm.OpNeg}},
		// h264's int % 7: multiply, shift, sign fix, multiply back.
		{7, 4, true, true, []asm.Op{asm.OpMovRR, asm.OpMulRI, asm.OpSarRI, asm.OpMovRR, asm.OpShrRI,
			asm.OpAddRR, asm.OpMulRI, asm.OpAddRR}},
		// bzip2's long % 17 goes through mulh.
		{17, 8, true, true, []asm.Op{asm.OpMovRR, asm.OpMulHiRI, asm.OpSarRI, asm.OpMovRR, asm.OpShrRI,
			asm.OpAddRR, asm.OpMulRI, asm.OpAddRR}},
		// unsigned % 4096 is one and.
		{4096, 4, false, true, []asm.Op{asm.OpMovRR, asm.OpAndRI}},
	} {
		p, ok := planDiv(tc.c, tc.width, tc.signed)
		if !ok {
			t.Fatalf("no plan for %d", tc.c)
		}
		seq, _ := p.emit(nil, tc.mod, asm.RBX, asm.RSI, asm.R11, asm.R10)
		var got []asm.Op
		for _, in := range seq {
			got = append(got, in.Op)
		}
		if len(got) != len(tc.want) {
			t.Fatalf("c=%d: sequence %v", tc.c, seq)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("c=%d: sequence %v", tc.c, seq)
			}
		}
	}
}

// FuzzDivConst checks the emitted sequence for an arbitrary dividend,
// divisor, width and signedness against Go's / and %.
func FuzzDivConst(f *testing.F) {
	f.Add(int64(-7), int64(7), uint8(4), true)
	f.Add(int64(math.MinInt64), int64(17), uint8(8), true)
	f.Add(int64(-1), int64(1000), uint8(8), true)
	f.Add(int64(math.MaxInt64), int64(-3), uint8(8), true)
	f.Add(int64(-1), int64(255), uint8(4), false)
	f.Add(int64(12345), int64(-4096), uint8(2), true)
	f.Add(int64(200), int64(10), uint8(1), false)
	f.Fuzz(func(t *testing.T, x, c int64, width uint8, signed bool) {
		w := []int{1, 2, 4, 8}[width%4]
		c = canon(c, w, signed)
		if c == 0 {
			return
		}
		checkDivConst(t, c, w, signed, []int64{x})
	})
}
