// Package confllvm is a from-scratch Go reproduction of ConfLLVM
// (Brahmakshatriya et al., EuroSys 2019): a compiler-based scheme for
// enforcing data confidentiality in low-level code.
//
// The package compiles a C subset ("miniC") carrying the paper's `private`
// type qualifier through the full pipeline — taint inference, instrumented
// code generation (MPX bound checks or segment-register addressing, split
// public/private stacks, taint-aware CFI magic sequences), linking with
// post-link magic-prefix selection — and executes the result on an
// emulated x64-like machine with a cycle cost model. A separate verifier
// (ConfVerify) re-checks linked binaries without trusting the compiler.
//
// Quick start:
//
//	art, err := confllvm.Compile(confllvm.Program{
//	    Sources: []confllvm.Source{{Name: "hello.c", Code: src}},
//	}, confllvm.VariantSeg)
//	res, err := confllvm.Run(art, confllvm.NewWorld(), nil)
package confllvm

import (
	"fmt"

	"confllvm/internal/alloc"
	"confllvm/internal/codegen"
	"confllvm/internal/ir"
	"confllvm/internal/irgen"
	"confllvm/internal/link"
	"confllvm/internal/loader"
	"confllvm/internal/machine"
	"confllvm/internal/minic"
	"confllvm/internal/opt"
	"confllvm/internal/taint"
	"confllvm/internal/trt"
	"confllvm/internal/types"
	"confllvm/internal/verify"
)

// Variant selects one of the paper's evaluation configurations (§7.1/§7.2).
type Variant int

const (
	// VariantBase is vanilla compilation: full optimizations, no
	// separation, no checks, naive allocator.
	VariantBase Variant = iota
	// VariantBaseOA is Base with ConfLLVM's custom region allocator.
	VariantBaseOA
	// VariantBare is the ConfLLVM pipeline with U/T memory separation
	// and stack switching but no runtime checks (OurBare).
	VariantBare
	// VariantCFI adds taint-aware CFI to Bare (OurCFI).
	VariantCFI
	// VariantMPX is full ConfLLVM with MPX bound checks (OurMPX).
	VariantMPX
	// VariantSeg is full ConfLLVM with segment-register addressing
	// (OurSeg).
	VariantSeg
	// VariantMPXSep is OurMPX without separate public/private stacks
	// (OurMPX-Sep, §7.2), used to isolate stack-separation cache costs.
	VariantMPXSep
	// VariantOneMem is OurBare without U/T memory separation (Our1Mem,
	// §7.2).
	VariantOneMem
	// VariantMPXNaive is OurMPX with the §5.1 MPX optimizations disabled
	// (per-access checks, no rsp elision): the ablation baseline for the
	// optimization-savings measurement. Not part of the paper's config
	// set, so excluded from AllVariants.
	VariantMPXNaive

	numVariants
)

var variantNames = [numVariants]string{
	"Base", "BaseOA", "OurBare", "OurCFI", "OurMPX", "OurSeg", "OurMPX-Sep", "Our1Mem",
	"OurMPX-Naive",
}

func (v Variant) String() string {
	if v >= 0 && int(v) < len(variantNames) {
		return variantNames[v]
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Config returns the codegen configuration of the variant (StackOffset is
// filled from the layout during Compile).
func (v Variant) Config() codegen.Config {
	switch v {
	case VariantBase, VariantBaseOA:
		return codegen.Config{IgnoreTaint: true}
	case VariantBare:
		return codegen.Config{SeparateStacks: true, SeparateUT: true}
	case VariantCFI:
		return codegen.Config{CFI: true, SeparateStacks: true, SeparateUT: true}
	case VariantMPX:
		return codegen.Config{CFI: true, Bounds: codegen.BoundsMPX,
			SeparateStacks: true, SeparateUT: true, ChkStk: true}
	case VariantSeg:
		return codegen.Config{CFI: true, Bounds: codegen.BoundsSeg,
			SeparateStacks: true, SeparateUT: true, ChkStk: true}
	case VariantMPXSep:
		return codegen.Config{CFI: true, Bounds: codegen.BoundsMPX,
			SeparateStacks: false, SeparateUT: true, ChkStk: true}
	case VariantOneMem:
		return codegen.Config{SeparateStacks: true, SeparateUT: false}
	case VariantMPXNaive:
		return codegen.Config{CFI: true, Bounds: codegen.BoundsMPX,
			SeparateStacks: true, SeparateUT: true, ChkStk: true, NoMPXOpt: true}
	}
	return codegen.Config{}
}

// AllocMode returns the heap allocator policy of the variant.
func (v Variant) AllocMode() alloc.Mode {
	if v == VariantBase {
		return alloc.Bump
	}
	return alloc.FreeList
}

// OptPasses returns the optimization pipeline of the variant: the vanilla
// baseline runs full O2; ConfLLVM disables the passes it has not ported.
func (v Variant) OptPasses() opt.Passes {
	switch v {
	case VariantBase, VariantBaseOA:
		return opt.O2()
	}
	return opt.ConfLLVM()
}

// Checked reports whether the variant enforces confidentiality at runtime.
func (v Variant) Checked() bool { return v == VariantMPX || v == VariantSeg }

// AllVariants lists every configuration in paper order.
func AllVariants() []Variant {
	return []Variant{VariantBase, VariantBaseOA, VariantBare, VariantCFI,
		VariantMPX, VariantSeg, VariantMPXSep, VariantOneMem}
}

// Source is one miniC translation unit.
type Source struct {
	Name string
	Code string
}

// Program is a compilation request.
type Program struct {
	Sources []Source
	// Strict rejects branching on private data (implicit-flow-free mode).
	Strict bool
	// AllPrivate marks all inferred data private (the SGX mode of §7.4).
	AllPrivate bool
	// Seed drives magic-prefix selection (builds are reproducible).
	Seed int64
	// NoOpt compiles at -O0 (used for the Privado partial-O0 detail).
	NoOpt bool
}

// Artifact is a compiled, linked program.
type Artifact struct {
	Image   *link.Image
	Variant Variant
	// Strict records whether the program was compiled implicit-flow-free.
	Strict bool
	// Warnings holds implicit-flow (branch-on-private) diagnostics.
	Warnings []string
	// IR is retained for inspection and tests.
	IR *ir.Module
}

// Verify runs ConfVerify on a compiled artifact: it re-checks the linked
// binary's instrumentation without trusting the compiler (§5.2). Only the
// deployable configurations (CFI + MPX/Seg with separated stacks) are
// verifiable.
func Verify(art *Artifact) error {
	return verify.Verify(art.Image, verify.Options{Strict: art.Strict})
}

// VerifyArtifact is Verify with explicit verifier options (per-function
// parallelism), returning throughput stats alongside the verdict. Strict
// is always taken from the artifact (the binary was compiled under that
// contract); the verdict, error and stats are byte-identical for every
// Parallel setting.
func VerifyArtifact(art *Artifact, opts verify.Options) (verify.Stats, error) {
	opts.Strict = art.Strict
	return verify.VerifyStats(art.Image, opts)
}

// Verifiable reports whether the artifact was built in a configuration
// the independent verifier accepts (CFI plus bounds enforcement plus
// separated stacks — the deployable configurations). Verify on a
// non-verifiable artifact always errors, by design.
func (a *Artifact) Verifiable() bool {
	c := a.Image.Config
	return c.CFI && c.Bounds != codegen.BoundsNone && c.SeparateStacks
}

// Compile runs the full pipeline for one variant.
func Compile(prog Program, variant Variant) (*Artifact, error) {
	gen := &minic.QualGen{}
	files, err := parseAll(prog, gen)
	if err != nil {
		return nil, err
	}
	mod, err := irgen.Gen(files, gen)
	if err != nil {
		return nil, err
	}
	passes := variant.OptPasses()
	if prog.NoOpt {
		passes = opt.None()
	}
	opt.Run(mod, passes)

	var a *taint.Assignment
	var warns []string
	if variant == VariantBase || variant == VariantBaseOA {
		// Vanilla compiler: no taint checking at all.
		a = &taint.Assignment{}
	} else {
		a, err = taint.Infer(mod, gen.Count(), taint.Options{
			Strict:     prog.Strict,
			AllPrivate: prog.AllPrivate,
		})
		if err != nil {
			return nil, err
		}
		for _, w := range a.BranchWarnings {
			warns = append(warns, "warning: possible implicit flow: "+w.String())
		}
	}

	conf := variant.Config()
	layout := link.LayoutFor(conf)
	conf.StackOffset = layout.Offset()
	cm, err := codegen.Gen(mod, a, conf)
	if err != nil {
		return nil, err
	}
	seed := prog.Seed
	if seed == 0 {
		seed = 0x5eed
	}
	img, err := link.Link(cm, layout, seed)
	if err != nil {
		return nil, err
	}
	return &Artifact{Image: img, Variant: variant, Strict: prog.Strict,
		Warnings: warns, IR: mod}, nil
}

// EncryptForWire applies the trusted runtime's session cipher — what a
// remote client does to data before sending it, so that T's decrypt
// recovers it into a private buffer.
func EncryptForWire(data []byte) []byte { return trt.EncryptWithDefaultKey(data) }

// World is the simulated external environment handed to T.
type World struct {
	Files     map[string][]byte
	PrivFiles map[string][]byte
	Passwords map[string][]byte
	Params    []int64
	PrivIn    map[int][]byte
	NetIn     [][]byte
	// Extra registers application-specific trusted functions.
	Extra map[string]machine.Handler
	// Observe, when set, is called after every trusted-handler invocation
	// with the handler name and the calling thread's simulated cycle
	// counter at entry and exit (see trt.Context.Observe). Purely
	// observational: no simulated result changes, and unobserved runs pay
	// nothing.
	Observe func(name string, startCycles, endCycles uint64)
}

// NewWorld returns an empty world.
func NewWorld() *World {
	return &World{
		Files:     map[string][]byte{},
		PrivFiles: map[string][]byte{},
		Passwords: map[string][]byte{},
		PrivIn:    map[int][]byte{},
		Extra:     map[string]machine.Handler{},
	}
}

// Result is one execution's outcome.
type Result struct {
	ExitCode uint64
	Fault    *machine.Fault
	// Observable channels.
	NetOut  [][]byte
	Log     []byte
	Outputs []int64
	// Performance.
	Stats      machine.Stats
	WallCycles uint64
	// TCtx exposes the trusted context for white-box assertions.
	TCtx *trt.Context
	// Machine is retained for white-box inspection in tests.
	Machine *machine.Machine
	// Profile is the cycle-attribution profile keyed by raw PC, non-nil
	// only when the run's machine.Config had Profile set (internal/obs
	// symbolizes it against the artifact's symbol table).
	Profile *machine.Profile
}

// prepared is a loaded machine ready to run (used by Run and by white-box
// attack tests that need to intervene mid-execution).
type prepared struct {
	m   *machine.Machine
	t0  *machine.Thread
	ctx *trt.Context
}

// prepare performs the load phase of Run: allocators, trusted context,
// machine construction and main-thread creation — without executing.
func prepare(art *Artifact, w *World) (*prepared, error) {
	return prepareWith(art, w, nil)
}

func prepareWith(art *Artifact, w *World, mconf *machine.Config) (*prepared, error) {
	img := art.Image
	l := img.Layout
	mc := machine.DefaultConfig()
	if mconf != nil {
		mc = *mconf
	}

	heapEnd := func(base uint64) uint64 { return base + l.UsableSize - l.StackArea }
	pubHeap := l.HeapStart(l.PubBase, uint64(len(img.PubData)))
	privHeap := l.HeapStart(l.PrivBase, uint64(len(img.PrivData)))
	mode := art.Variant.AllocMode()
	pubAlloc := alloc.New(pubHeap, heapEnd(l.PubBase)-pubHeap, mode)
	privAlloc := alloc.New(privHeap, heapEnd(l.PrivBase)-privHeap, mode)

	ctx := trt.NewContext(img, pubAlloc, privAlloc)
	if w == nil {
		w = NewWorld()
	}
	for k, v := range w.Files {
		ctx.Files[k] = v
	}
	for k, v := range w.PrivFiles {
		ctx.PrivFiles[k] = v
	}
	for k, v := range w.Passwords {
		ctx.Passwords[k] = v
	}
	for k, v := range w.PrivIn {
		ctx.PrivIn[k] = v
	}
	ctx.Params = w.Params
	ctx.NetIn = w.NetIn
	ctx.Observe = w.Observe
	for name, h := range w.Extra {
		ctx.Register(name, h)
	}

	m, err := loader.Load(img, ctx.Handlers(), mc)
	if err != nil {
		return nil, err
	}
	ctx.Spawn = func(fnPtr, arg uint64) error {
		fs := loader.FuncByPtr(img, fnPtr)
		if fs == nil {
			return fmt.Errorf("no function at pointer %#x", fnPtr)
		}
		_, serr := loader.SpawnThread(m, img, fs, arg)
		return serr
	}
	t0, err := loader.Start(m, img)
	if err != nil {
		return nil, err
	}
	return &prepared{m: m, t0: t0, ctx: ctx}, nil
}

// Prepared is a loaded machine that has not executed yet: the outcome of
// Run's load phase, exported so callers can intervene between load and
// execution — the chaos supervisor corrupts a code page with
// Memory.WriteBytesUnchecked to model a runtime bit-flip, and white-box
// tests poke at registers or memory. The artifact itself is never
// mutated; the machine owns copies of the image bytes.
type Prepared struct {
	p *prepared
}

// Prepare performs the load phase of Run: allocators, trusted context,
// machine construction and main-thread creation — without executing.
// mconf may be nil for the default cost model.
func Prepare(art *Artifact, w *World, mconf *machine.Config) (*Prepared, error) {
	p, err := prepareWith(art, w, mconf)
	if err != nil {
		return nil, err
	}
	return &Prepared{p: p}, nil
}

// Machine exposes the loaded machine for pre-run intervention.
func (p *Prepared) Machine() *machine.Machine { return p.p.m }

// Finish executes the prepared machine to completion and collects the
// result, exactly like Run's execution phase. It must be called at most
// once.
func (p *Prepared) Finish() *Result {
	fault := p.p.m.Run()
	return &Result{
		ExitCode:   p.p.t0.ExitCode,
		Fault:      fault,
		NetOut:     p.p.ctx.NetOut,
		Log:        p.p.ctx.Log,
		Outputs:    p.p.ctx.Outputs,
		Stats:      p.p.m.TotalStats(),
		WallCycles: p.p.m.WallCycles(),
		TCtx:       p.p.ctx,
		Machine:    p.p.m,
		Profile:    p.p.m.Profile(),
	}
}

// Run loads and executes an artifact against a world. mconf may be nil for
// the default cost model. A fault is reported in Result.Fault, not as an
// error (exploit tests expect faults).
func Run(art *Artifact, w *World, mconf *machine.Config) (*Result, error) {
	p, err := Prepare(art, w, mconf)
	if err != nil {
		return nil, err
	}
	return p.Finish(), nil
}

// parseAll parses every source with a shared struct-tag registry.
func parseAll(prog Program, gen *minic.QualGen) ([]*minic.File, error) {
	structs := map[string]*types.Type{}
	var files []*minic.File
	for _, s := range prog.Sources {
		f, err := minic.Parse(s.Name, s.Code, structs, gen)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}
