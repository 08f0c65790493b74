package regalloc_test

import (
	"fmt"
	"slices"
	"testing"

	"confllvm"
	"confllvm/internal/asm"
	"confllvm/internal/bench"
	"confllvm/internal/ir"
	"confllvm/internal/irgen"
	"confllvm/internal/minic"
	"confllvm/internal/opt"
	"confllvm/internal/regalloc"
	"confllvm/internal/taint"
	"confllvm/internal/types"
)

// check verifies an allocation of f without trusting anything the
// allocator computed. It recomputes liveness, then runs a forward
// dataflow over the blocks of which values each register and spill slot
// holds, intersected at joins, with the lowering's semantics: a
// definition puts its value in its location and takes the old value out
// of every location; a copy or integer bitcast whose result shares its
// source's location leaves both values there, as codegen emits nothing
// for it; a call empties the caller-saved and all FP registers; the
// prologue puts each parameter in its location. It reports:
//
//   - an operand whose location does not hold its current value, where
//     the value is defined on every path (reading an uninitialized
//     variable may read anything);
//   - a private value in a callee-saved register;
//   - a value live after a call, other than its result, in a caller-saved
//     or an FP register;
//   - the scratch registers R10/R11 or xmm14/15, rsp or rbp assigned;
//   - a slot whose taint or float-ness differs from its value's, or a
//     slot number out of range;
//   - a callee-saved register assigned but missing from UsedCalleeSaved;
//   - a non-commutative two-address result sharing a register with its
//     second operand, or wrong call facts.
func check(f *ir.Func, res *regalloc.Result, isPrivate, isFloat func(ir.Value) bool) error {
	c := &checker{f: f, res: res, n: f.NumValues()}
	c.words = (c.n + 63) / 64
	if err := c.locations(isPrivate, isFloat); err != nil {
		return err
	}
	if err := c.calls(); err != nil {
		return err
	}
	return c.dataflow()
}

type checker struct {
	f     *ir.Func
	res   *regalloc.Result
	n     int
	words int
}

type bitset []uint64

func (s bitset) has(v ir.Value) bool { return s[v/64]&(1<<(uint(v)%64)) != 0 }
func (s bitset) add(v ir.Value)      { s[v/64] |= 1 << (uint(v) % 64) }
func (s bitset) del(v ir.Value)      { s[v/64] &^= 1 << (uint(v) % 64) }

func (c *checker) set() bitset { return make(bitset, c.words) }

// occurs lists the values f names.
func (c *checker) occurs() []bool {
	seen := make([]bool, c.n)
	for _, blk := range c.f.Blocks {
		for _, in := range blk.Insts {
			for _, a := range in.Args {
				if a != ir.NoValue {
					seen[a] = true
				}
			}
			if in.Res != ir.NoValue {
				seen[in.Res] = true
			}
		}
	}
	return seen
}

func (c *checker) locations(isPrivate, isFloat func(ir.Value) bool) error {
	if len(c.res.Locs) != c.n {
		return fmt.Errorf("%d locations for %d values", len(c.res.Locs), c.n)
	}
	used := map[asm.Reg]bool{}
	for v, seen := range c.occurs() {
		l := c.res.Locs[v]
		val := ir.Value(v)
		if !seen {
			continue
		}
		if l.Private != isPrivate(val) {
			return fmt.Errorf("v%d: location %+v, private %v", v, l, isPrivate(val))
		}
		switch l.Kind {
		case regalloc.LocReg:
			switch {
			case isFloat(val):
				return fmt.Errorf("float v%d in %v", v, l.Reg)
			case l.Reg == regalloc.ScratchA || l.Reg == regalloc.ScratchB || l.Reg == asm.RSP || l.Reg == asm.RBP:
				return fmt.Errorf("v%d in reserved %v", v, l.Reg)
			case l.Private && asm.IsCalleeSaved(l.Reg):
				return fmt.Errorf("private v%d in callee-saved %v", v, l.Reg)
			}
			if asm.IsCalleeSaved(l.Reg) {
				used[l.Reg] = true
			}
		case regalloc.LocFReg:
			if !isFloat(val) || l.FReg == regalloc.ScratchFA || l.FReg == regalloc.ScratchFB || l.FReg >= asm.NumFRegs {
				return fmt.Errorf("v%d (float %v) in %+v", v, isFloat(val), l)
			}
		case regalloc.LocSlot:
			limit := c.res.PubSlots
			if l.Private {
				limit = c.res.PrivSlots
			}
			if l.IsFloat != isFloat(val) || l.Slot < 0 || l.Slot >= limit {
				return fmt.Errorf("v%d (float %v) in slot %+v of %d", v, isFloat(val), l, limit)
			}
		default:
			return fmt.Errorf("v%d has no location", v)
		}
	}
	for r := range used {
		if !slices.Contains(c.res.UsedCalleeSaved, r) {
			return fmt.Errorf("callee-saved %v assigned but not saved (UsedCalleeSaved %v)", r, c.res.UsedCalleeSaved)
		}
	}
	return nil
}

// liveOut returns, per block ID, the values live out of it.
func (c *checker) liveOut() map[int]bitset {
	out, in := map[int]bitset{}, map[int]bitset{}
	for _, blk := range c.f.Blocks {
		out[blk.ID], in[blk.ID] = c.set(), c.set()
	}
	for changed := true; changed; {
		changed = false
		for _, blk := range c.f.Blocks {
			o := out[blk.ID]
			for _, s := range blk.Succs() {
				if si, ok := in[s]; ok {
					for w := range o {
						o[w] |= si[w]
					}
				}
			}
			live := slices.Clone(o)
			for i := len(blk.Insts) - 1; i >= 0; i-- {
				c.step(live, blk.Insts[i])
			}
			if !slices.Equal(live, in[blk.ID]) {
				in[blk.ID] = live
				changed = true
			}
		}
	}
	return out
}

// step turns the values live after in into those live before it.
func (c *checker) step(live bitset, in *ir.Inst) {
	if in.Res != ir.NoValue {
		live.del(in.Res)
	}
	for _, a := range in.Args {
		if a != ir.NoValue {
			live.add(a)
		}
	}
}

func (c *checker) calls() error {
	hasCall, maxArgs := false, 0
	out := c.liveOut()
	for _, blk := range c.f.Blocks {
		live := slices.Clone(out[blk.ID])
		for i := len(blk.Insts) - 1; i >= 0; i-- {
			in := blk.Insts[i]
			if in.Op == ir.OpCall || in.Op == ir.OpICall {
				hasCall = true
				na := len(in.Args)
				if in.Op == ir.OpICall {
					na--
				}
				maxArgs = max(maxArgs, na)
				for v := 0; v < c.n; v++ {
					if !live.has(ir.Value(v)) || ir.Value(v) == in.Res {
						continue
					}
					l := c.res.Locs[v]
					if l.Kind == regalloc.LocFReg || l.Kind == regalloc.LocReg && !asm.IsCalleeSaved(l.Reg) {
						return fmt.Errorf("v%d live across %v in %+v", v, in, l)
					}
				}
			}
			c.step(live, in)
		}
	}
	if hasCall != c.res.HasCall || maxArgs != c.res.MaxCallArgs {
		return fmt.Errorf("call facts %v/%d, want %v/%d", c.res.HasCall, c.res.MaxCallArgs, hasCall, maxArgs)
	}
	return nil
}

// state is what each location holds, and which values are defined on
// every path, at one point.
type state struct {
	holds   []bitset // by location index
	defined bitset
}

// loc maps a location to its index in state.holds: GPRs, FPRs, public
// slots, private slots.
func (c *checker) loc(l regalloc.Loc) int {
	switch l.Kind {
	case regalloc.LocReg:
		return int(l.Reg)
	case regalloc.LocFReg:
		return asm.NumRegs + int(l.FReg)
	case regalloc.LocSlot:
		if l.Private {
			return asm.NumRegs + asm.NumFRegs + c.res.PubSlots + l.Slot
		}
		return asm.NumRegs + asm.NumFRegs + l.Slot
	}
	return -1
}

func (c *checker) newState() *state {
	s := &state{holds: make([]bitset, asm.NumRegs+asm.NumFRegs+c.res.PubSlots+c.res.PrivSlots), defined: c.set()}
	for i := range s.holds {
		s.holds[i] = c.set()
	}
	return s
}

func (s *state) clone() *state {
	t := &state{holds: make([]bitset, len(s.holds)), defined: slices.Clone(s.defined)}
	for i, h := range s.holds {
		t.holds[i] = slices.Clone(h)
	}
	return t
}

// meet intersects t into s and reports whether s changed.
func (s *state) meet(t *state) bool {
	changed := false
	and := func(a, b bitset) {
		for w := range a {
			if x := a[w] & b[w]; x != a[w] {
				a[w] = x
				changed = true
			}
		}
	}
	for i := range s.holds {
		and(s.holds[i], t.holds[i])
	}
	and(s.defined, t.defined)
	return changed
}

// define puts v in location l alone, or beside the values already there
// when keep.
func (c *checker) define(s *state, v ir.Value, keep bool) {
	for _, h := range s.holds {
		h.del(v)
	}
	h := s.holds[c.loc(c.res.Locs[v])]
	if !keep {
		clear(h)
	}
	h.add(v)
	s.defined.add(v)
}

func (c *checker) dataflow() error {
	entry := c.newState()
	for _, p := range c.f.ParamRegs {
		if c.res.Locs[p].Kind != regalloc.LocNone {
			c.define(entry, p, false)
		}
	}
	idx := map[int]int{}
	for i, blk := range c.f.Blocks {
		idx[blk.ID] = i
	}
	in := make([]*state, len(c.f.Blocks))
	in[0] = entry
	for changed := true; changed; {
		changed = false
		for i, blk := range c.f.Blocks {
			if in[i] == nil {
				continue
			}
			s := in[i].clone()
			for _, inst := range blk.Insts {
				if err := c.transfer(s, inst); err != nil {
					return fmt.Errorf("%s block %d: %v: %w", c.f.Name, blk.ID, inst, err)
				}
			}
			for _, succ := range blk.Succs() {
				j, ok := idx[succ]
				switch {
				case !ok:
				case in[j] == nil:
					in[j] = s.clone()
					changed = true
				case in[j].meet(s):
					changed = true
				}
			}
		}
	}
	return nil
}

var callerSaved = []asm.Reg{asm.RAX, asm.RCX, asm.RDX, asm.R8, asm.R9, asm.R10, asm.R11}

func (c *checker) transfer(s *state, in *ir.Inst) error {
	for _, a := range in.Args {
		if a != ir.NoValue && s.defined.has(a) && !s.holds[c.loc(c.res.Locs[a])].has(a) {
			return fmt.Errorf("v%d is not in its location %+v", a, c.res.Locs[a])
		}
	}
	if class := in.Op.Class(); (class == ir.ClassIntBin || class == ir.ClassFloatBin) &&
		len(in.Args) == 2 && !in.Op.Commutative() && in.Res != in.Args[1] {
		d, b := c.res.Locs[in.Res], c.res.Locs[in.Args[1]]
		if d.Kind != regalloc.LocSlot && d == b {
			return fmt.Errorf("v%d shares %+v with its second operand v%d", in.Res, d, in.Args[1])
		}
	}
	if in.Op == ir.OpCall || in.Op == ir.OpICall {
		for _, r := range callerSaved {
			clear(s.holds[r])
		}
		for r := 0; r < asm.NumFRegs; r++ {
			clear(s.holds[asm.NumRegs+r])
		}
	}
	if in.Res == ir.NoValue {
		return nil
	}
	keep := false
	if in.Op == ir.OpCopy || in.Op == ir.OpBitcast {
		src := in.Args[0]
		l := c.loc(c.res.Locs[src])
		keep = src != in.Res && l == c.loc(c.res.Locs[in.Res]) && s.holds[l].has(src)
	}
	c.define(s, in.Res, keep)
	return nil
}

// lowerToTaint runs confllvm.Compile's stages up to the point codegen
// takes over: the IR module and taint assignment Allocate sees.
func lowerToTaint(t testing.TB, prog confllvm.Program, v confllvm.Variant) (*ir.Module, *taint.Assignment) {
	t.Helper()
	gen := &minic.QualGen{}
	structs := map[string]*types.Type{}
	var files []*minic.File
	for _, s := range prog.Sources {
		f, err := minic.Parse(s.Name, s.Code, structs, gen)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	mod, err := irgen.Gen(files, gen)
	if err != nil {
		t.Fatal(err)
	}
	passes := v.OptPasses()
	if prog.NoOpt {
		passes = opt.None()
	}
	opt.Run(mod, passes)
	a := &taint.Assignment{}
	if v != confllvm.VariantBase && v != confllvm.VariantBaseOA {
		a, err = taint.Infer(mod, gen.Count(), taint.Options{Strict: prog.Strict, AllPrivate: prog.AllPrivate})
		if err != nil {
			t.Fatal(err)
		}
	}
	return mod, a
}

// benchFunc is one function of a benchmark program under one variant,
// with the taint predicates codegen passes to Allocate.
type benchFunc struct {
	name               string
	f                  *ir.Func
	isPrivate, isFloat func(ir.Value) bool
}

// benchFuncs lowers every benchmark program under each of variants.
func benchFuncs(tb testing.TB, variants []confllvm.Variant) []benchFunc {
	var out []benchFunc
	for _, wl := range bench.Workloads(false) {
		for _, v := range variants {
			mod, a := lowerToTaint(tb, wl.Prog(v), v)
			ignoreTaint := v.Config().IgnoreTaint
			for _, f := range mod.Funcs {
				if f.Extern || f.Blocks == nil {
					continue
				}
				out = append(out, benchFunc{fmt.Sprintf("%s/%v: %s", wl.Name, v, f.Name), f,
					func(val ir.Value) bool {
						ty := f.ValueType(val)
						return !ignoreTaint && ty != nil && a.IsPrivate(ty.Qual)
					},
					func(val ir.Value) bool {
						ty := f.ValueType(val)
						return ty != nil && ty.Kind == types.Float
					}})
			}
		}
	}
	return out
}

// TestAllocateChecked runs check on the allocation of every function of
// every benchmark program under every variant.
func TestAllocateChecked(t *testing.T) {
	funcs, spilled := 0, 0
	for _, bf := range benchFuncs(t, confllvm.AllVariants()) {
		res := regalloc.Allocate(bf.f, bf.isPrivate, bf.isFloat)
		if err := check(bf.f, res, bf.isPrivate, bf.isFloat); err != nil {
			t.Fatalf("%s: %v", bf.name, err)
		}
		funcs++
		spilled += res.PubSlots + res.PrivSlots
	}
	if funcs == 0 || spilled == 0 {
		t.Fatalf("checked %d functions with %d spill slots: the check saw no pressure", funcs, spilled)
	}
}

// BenchmarkAllocate allocates every function of every benchmark program
// under Base, OurMPX and OurSeg once per iteration.
func BenchmarkAllocate(b *testing.B) {
	funcs := benchFuncs(b, []confllvm.Variant{confllvm.VariantBase, confllvm.VariantMPX, confllvm.VariantSeg})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bf := range funcs {
			regalloc.Allocate(bf.f, bf.isPrivate, bf.isFloat)
		}
	}
}
