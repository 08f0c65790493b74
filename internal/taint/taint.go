// Package taint implements ConfLLVM's type-qualifier inference (§5.1): it
// generates subtyping constraints over qualifier variables from the IR
// dataflow and solves them with a worklist fixpoint over the two-point
// lattice L ⊑ H. The paper discharges these constraints with an SMT
// solver; on this lattice a least-fixpoint propagation is decision-
// equivalent and runs in linear time.
//
// The inference is deliberately alias-free: declared pointer taints are
// *assumed* here and *enforced* by the runtime region checks inserted by
// codegen — exactly the paper's split between static analysis and runtime
// instrumentation.
package taint

import (
	"fmt"
	"strings"

	"confllvm/internal/ir"
	"confllvm/internal/minic"
	"confllvm/internal/types"
)

// edge is one constraint: From ⊑ To.
type edge struct {
	From, To types.Qual
	Pos      minic.Pos
	Reason   string
}

// Violation is a constraint the solver could not satisfy: private data
// flowing into a public position.
type Violation struct {
	Pos    minic.Pos
	Reason string
}

func (v Violation) String() string {
	if v.Pos.Line == 0 {
		return v.Reason
	}
	return fmt.Sprintf("%s: %s", v.Pos, v.Reason)
}

// TypeError aggregates all inference violations for a module.
type TypeError struct {
	Violations []Violation
}

func (e *TypeError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "taint inference failed with %d violation(s):", len(e.Violations))
	for _, v := range e.Violations {
		b.WriteString("\n  private data may leak: ")
		b.WriteString(v.String())
	}
	return b.String()
}

// Assignment is the solved qualifier valuation.
type Assignment struct {
	priv []bool
	// allPrivate short-circuits resolution: every term is private (the
	// paper's SGX mode, where U's entire dataset lives in the private
	// region and the compiler only enforces region confinement).
	allPrivate bool
	// BranchWarnings lists branch-on-private occurrences (implicit-flow
	// warnings; errors in strict mode).
	BranchWarnings []Violation
}

// AllPrivateAssignment returns the valuation of the all-private mode.
func AllPrivateAssignment() *Assignment { return &Assignment{allPrivate: true} }

// Of resolves a qualifier term to a concrete level.
func (a *Assignment) Of(q types.Qual) types.Qual {
	switch {
	case a.allPrivate:
		return types.Private
	case q == types.Private:
		return types.Private
	case q == types.Public:
		return types.Public
	case int(q) < len(a.priv) && a.priv[q]:
		return types.Private
	default:
		return types.Public
	}
}

// IsPrivate reports whether the term resolves to Private.
func (a *Assignment) IsPrivate(q types.Qual) bool { return a.Of(q) == types.Private }

type collector struct {
	edges    []edge
	branches []edge // branch conditions: cond ⊑ L in strict mode
	mod      *ir.Module
}

func (c *collector) sub(from, to types.Qual, pos minic.Pos, reason string) {
	if from == types.Public { // trivially satisfied
		return
	}
	if from == to {
		return
	}
	c.edges = append(c.edges, edge{from, to, pos, reason})
}

func (c *collector) eq(a, b types.Qual, pos minic.Pos, reason string) {
	c.sub(a, b, pos, reason)
	c.sub(b, a, pos, reason)
}

// deepEq equates the qualifiers of the pointee chains of two same-shape
// types, excluding the outermost level. Mutable memory makes deeper levels
// invariant.
func (c *collector) deepEq(a, b *types.Type, pos minic.Pos, reason string) {
	for a != nil && b != nil {
		if a == b {
			return // shared type term: identical qualifiers by construction
		}
		if a.Kind != types.Ptr || b.Kind != types.Ptr {
			return
		}
		a, b = a.Elem, b.Elem
		c.eq(a.Qual, b.Qual, pos, reason+" (pointee)")
		if a.Kind == types.Func && b.Kind == types.Func {
			c.eqSig(a.Sig, b.Sig, pos, reason)
			return
		}
	}
}

// eqSig equates two function signatures' qualifiers (function pointers are
// invariant in their parameter and return taints; the CFI magic-sequence
// check enforces the same thing dynamically).
func (c *collector) eqSig(a, b *types.FuncSig, pos minic.Pos, reason string) {
	n := len(a.Params)
	if len(b.Params) < n {
		n = len(b.Params)
	}
	for i := 0; i < n; i++ {
		c.eq(a.Params[i].Qual, b.Params[i].Qual, pos, reason+" (fn param)")
		c.deepEq(a.Params[i], b.Params[i], pos, reason)
	}
	if a.Ret != nil && b.Ret != nil {
		c.eq(a.Ret.Qual, b.Ret.Qual, pos, reason+" (fn ret)")
		c.deepEq(a.Ret, b.Ret, pos, reason)
	}
}

// subValue constrains a value flow: outermost covariant, deeper invariant.
func (c *collector) subValue(from, to *types.Type, pos minic.Pos, reason string) {
	if from == nil || to == nil {
		return
	}
	c.sub(from.Qual, to.Qual, pos, reason)
	c.deepEq(from, to, pos, reason)
}

func (c *collector) collectFunc(f *ir.Func) error {
	for _, blk := range f.Blocks {
		for _, in := range blk.Insts {
			if err := c.collectInst(f, in); err != nil {
				return err
			}
		}
	}
	return nil
}

// collectInst adds in's constraints, by its op's class. It rejects an op
// of a class it has no rule for, so a new class cannot slip through
// inference unconstrained.
func (c *collector) collectInst(f *ir.Func, in *ir.Inst) error {
	ty := func(v ir.Value) *types.Type { return f.ValueType(v) }
	switch in.Op.Class() {
	case ir.ClassConst, ir.ClassAddress:
		// Sources with fixed or shared qualifiers: nothing to do.

	case ir.ClassIntBin, ir.ClassFloatBin, ir.ClassCompare, ir.ClassConversion:
		// Only the operands' own taint flows. Pointer arithmetic results
		// share the pointee type term with the pointer operand
		// (constructed that way in irgen); casts sever pointee linkage by
		// design.
		for _, a := range in.Args {
			c.sub(ty(a).Qual, ty(in.Res).Qual, in.Pos, "operand flows into "+in.Op.String()+" result")
		}

	case ir.ClassCopy:
		c.subValue(ty(in.Args[0]), ty(in.Res), in.Pos, "assignment")

	case ir.ClassMemory:
		// The declared pointee and the access type must agree; the
		// runtime check enforces the region. The address's own taint
		// flows into what the access reads or writes: a lookup by a
		// private index is private, and a store through one makes the
		// memory it writes private.
		addrTy := ty(in.Args[0])
		if addrTy.Kind == types.Ptr {
			c.eq(addrTy.Elem.Qual, in.Ty.Qual, in.Pos, in.Op.String()+" pointee")
			c.deepEq(addrTy.Elem, in.Ty, in.Pos, in.Op.String()+" pointee")
		}
		if in.Op == ir.OpStore {
			c.sub(addrTy.Qual, in.Ty.Qual, in.Pos, "store address")
			c.subValue(ty(in.Args[1]), in.Ty, in.Pos, "stored value")
			break
		}
		c.sub(addrTy.Qual, ty(in.Res).Qual, in.Pos, "load address")
		c.sub(in.Ty.Qual, ty(in.Res).Qual, in.Pos, "loaded value")
		c.deepEq(in.Ty, ty(in.Res), in.Pos, "loaded value")

	case ir.ClassCall:
		args := in.Args
		name := in.Callee
		var sig *types.FuncSig
		if in.Op == ir.OpCall {
			callee := c.mod.Func(in.Callee)
			if callee == nil {
				return nil
			}
			sig = callee.Sig
		} else {
			fnTy := ty(in.Args[0])
			if in.Res != ir.NoValue {
				// Which function runs decides the result.
				c.sub(fnTy.Qual, ty(in.Res).Qual, in.Pos, "indirect call target")
			}
			args = in.Args[1:]
			name = "indirect call"
			if sig = types.SigOf(fnTy); sig == nil {
				return nil
			}
		}
		for i, a := range args {
			if i < len(sig.Params) {
				c.subValue(ty(a), sig.Params[i], in.Pos,
					fmt.Sprintf("argument %d of %s", i+1, name))
			} else if sig.Variadic {
				// Variadic arguments travel on the public stack.
				c.sub(ty(a).Qual, types.Public, in.Pos,
					fmt.Sprintf("variadic argument %d of %s (varargs are public)", i+1, name))
			}
		}
		if in.Res != ir.NoValue && sig.Ret != nil {
			c.sub(sig.Ret.Qual, ty(in.Res).Qual, in.Pos, "return value of "+name)
			c.deepEq(sig.Ret, ty(in.Res), in.Pos, "return value of "+name)
		}

	case ir.ClassTerminator:
		switch in.Op {
		case ir.OpRet:
			if rt := f.Sig.Ret; len(in.Args) > 0 && rt != nil && rt.Kind != types.Void {
				c.subValue(ty(in.Args[0]), rt, in.Pos, "return from "+f.Name)
			}
		case ir.OpCondBr:
			// Branch on private data is an implicit flow: warning, or
			// error in strict mode.
			c.branches = append(c.branches, edge{ty(in.Args[0]).Qual, types.Public,
				in.Pos, "branch condition in " + f.Name})
		}

	default:
		return fmt.Errorf("taint: %s: no constraint rule for op %s (class %d)", f.Name, in.Op, in.Op.Class())
	}
	return nil
}

// Options configures inference.
type Options struct {
	// Strict disallows branching on private data (implicit-flow-free
	// mode; the paper ran all experiments this way).
	Strict bool
	// AllPrivate marks every qualifier variable private (the paper's
	// all-private mode used for the SGX experiment): inference then only
	// confines U to its own memory.
	AllPrivate bool
}

// Infer generates and solves the qualifier constraints for mod. nvars is
// the number of qualifier variables allocated (QualGen.Count()).
func Infer(mod *ir.Module, nvars int32, opts Options) (*Assignment, error) {
	c := &collector{mod: mod}
	for _, f := range mod.Funcs {
		if f.Blocks != nil {
			if err := c.collectFunc(f); err != nil {
				return nil, err
			}
		}
	}

	if opts.AllPrivate {
		// All-private mode (§5.1): every value is private, so explicit
		// and implicit flows are impossible by construction; the
		// compiler's only remaining job is region confinement. No
		// constraint checking is needed.
		return AllPrivateAssignment(), nil
	}
	a := &Assignment{priv: make([]bool, nvars)}

	// Least-fixpoint propagation: seed with Private sources, propagate
	// along edges into variables.
	adj := make(map[int32][]int32) // var -> downstream vars
	var work []int32
	seen := make([]bool, nvars)
	push := func(v int32) {
		if !a.priv[v] {
			a.priv[v] = true
		}
		if !seen[v] {
			seen[v] = true
			work = append(work, v)
		}
	}
	for _, e := range c.edges {
		if e.From.IsVar() && e.To.IsVar() {
			adj[int32(e.From)] = append(adj[int32(e.From)], int32(e.To))
		}
		if e.From == types.Private && e.To.IsVar() {
			push(int32(e.To))
		}
	}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		seen[v] = false
		for _, w := range adj[v] {
			if !a.priv[w] {
				a.priv[w] = true
				if !seen[w] {
					seen[w] = true
					work = append(work, w)
				}
			}
		}
	}

	// Check upper bounds: any edge whose resolved source is Private and
	// whose target is the constant Public is a violation.
	var viols []Violation
	for _, e := range c.edges {
		if e.To == types.Public && a.IsPrivate(e.From) {
			viols = append(viols, Violation{e.Pos, e.Reason})
		}
	}
	for _, e := range c.branches {
		if a.IsPrivate(e.From) {
			a.BranchWarnings = append(a.BranchWarnings, Violation{e.Pos, e.Reason})
		}
	}
	if opts.Strict && len(a.BranchWarnings) > 0 {
		viols = append(viols, a.BranchWarnings...)
	}
	if len(viols) > 0 {
		return nil, &TypeError{Violations: viols}
	}
	return a, nil
}
