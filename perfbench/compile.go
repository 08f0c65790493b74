package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"confllvm"
	"confllvm/internal/asm"
	"confllvm/internal/bench"
	"confllvm/internal/codegen"
	"confllvm/internal/ir"
	"confllvm/internal/irgen"
	"confllvm/internal/link"
	"confllvm/internal/minic"
	"confllvm/internal/opt"
	"confllvm/internal/taint"
	"confllvm/internal/types"
	"confllvm/internal/verify"
)

// compileVariants are the configurations every compile and spec-run
// operation covers: the vanilla baseline and the two checked variants.
var compileVariants = []confllvm.Variant{confllvm.VariantBase, confllvm.VariantMPX, confllvm.VariantSeg}

// compileJob is one (program, variant) compilation.
type compileJob struct {
	name string
	v    confllvm.Variant
	prog confllvm.Program
}

// compileJobs lists every program of bench.Workloads(false) under every
// compile variant, linked with linkSeed.
func compileJobs(linkSeed int64) []compileJob {
	var jobs []compileJob
	for _, wl := range bench.Workloads(false) {
		for _, v := range compileVariants {
			prog := wl.Prog(v)
			prog.Seed = linkSeed
			jobs = append(jobs, compileJob{name: wl.Name, v: v, prog: prog})
		}
	}
	return jobs
}

// compilePublic is the untraced compile operation: the public compiler
// entry point plus, for the checked variants, the verify gate (no verdict
// cache).
func compilePublic(j compileJob, parallel int) (*link.Image, error) {
	art, err := confllvm.Compile(j.prog, j.v)
	if err != nil {
		return nil, fmt.Errorf("%s [%v]: compile: %w", j.name, j.v, err)
	}
	if j.v.Checked() {
		if _, err := confllvm.VerifyArtifact(art, verify.Options{Parallel: parallel}); err != nil {
			return nil, fmt.Errorf("%s [%v]: verify: %w", j.name, j.v, err)
		}
	}
	return art.Image, nil
}

// stageCounts are the work counts of one staged compilation.
type stageCounts struct {
	v           confllvm.Variant
	srcBytes    int
	irInsts     int // after irgen
	irInstsOut  int // after opt
	qualVars    int // qualifier variables solved by taint inference
	insts       int // machine instructions emitted by codegen
	bndChecks   int // MPX bound-check instructions emitted by codegen
	codeBytes   int // linked code bytes
	verifyFuncs int
	verifyInsts int
}

// compileStaged is the traced compile operation: the stages of
// confllvm.Compile called one by one in the same order, each inside a span
// under root, followed by the verify gate for the checked variants. The
// image it links is byte-identical to confllvm.Compile's (checked by the
// traced run and by the tests).
func compileStaged(j compileJob, parallel int, tr *Tracer, op, root int32) (*link.Image, stageCounts, error) {
	c := stageCounts{v: j.v}
	fail := func(stage string, err error) (*link.Image, stageCounts, error) {
		return nil, c, fmt.Errorf("%s [%v]: %s: %w", j.name, j.v, stage, err)
	}
	gen := &minic.QualGen{}
	structs := map[string]*types.Type{}
	var files []*minic.File
	s := tr.Begin("minic", root, op, true)
	for _, src := range j.prog.Sources {
		f, err := minic.Parse(src.Name, src.Code, structs, gen)
		if err != nil {
			tr.End(s)
			return fail("minic", err)
		}
		files = append(files, f)
		c.srcBytes += len(src.Code)
	}
	tr.End(s)

	s = tr.Begin("irgen", root, op, true)
	mod, err := irgen.Gen(files, gen)
	tr.End(s)
	if err != nil {
		return fail("irgen", err)
	}
	c.irInsts = irInsts(mod)

	passes := j.v.OptPasses()
	if j.prog.NoOpt {
		passes = opt.None()
	}
	s = tr.Begin("opt", root, op, true)
	opt.Run(mod, passes)
	tr.End(s)
	c.irInstsOut = irInsts(mod)

	a := &taint.Assignment{} // the vanilla variants skip taint checking
	if j.v != confllvm.VariantBase && j.v != confllvm.VariantBaseOA {
		s = tr.Begin("taint", root, op, true)
		a, err = taint.Infer(mod, gen.Count(), taint.Options{
			Strict:     j.prog.Strict,
			AllPrivate: j.prog.AllPrivate,
		})
		tr.End(s)
		if err != nil {
			return fail("taint", err)
		}
		c.qualVars = int(gen.Count())
	}

	conf := j.v.Config()
	layout := link.LayoutFor(conf)
	conf.StackOffset = layout.Offset()
	s = tr.Begin("codegen", root, op, true)
	cm, err := codegen.Gen(mod, a, conf)
	tr.End(s)
	if err != nil {
		return fail("codegen", err)
	}
	c.insts, c.bndChecks = machineInsts(cm)

	seed := j.prog.Seed
	if seed == 0 {
		seed = 0x5eed
	}
	s = tr.Begin("link", root, op, true)
	img, err := link.Link(cm, layout, seed)
	tr.End(s)
	if err != nil {
		return fail("link", err)
	}
	c.codeBytes = len(img.Code)

	if j.v.Checked() {
		s = tr.Begin("verify", root, op, true)
		st, err := verify.VerifyStats(img, verify.Options{Strict: j.prog.Strict, Parallel: parallel})
		tr.End(s)
		if err != nil {
			return fail("verify", err)
		}
		c.verifyFuncs, c.verifyInsts = st.Funcs, st.Insts
	}
	return img, c, nil
}

func irInsts(mod *ir.Module) int {
	n := 0
	for _, f := range mod.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Insts)
		}
	}
	return n
}

// machineInsts counts codegen's emitted instructions (magic words
// excluded) and, among them, the MPX bound checks.
func machineInsts(cm *codegen.Module) (insts, bndChecks int) {
	for _, f := range cm.Funcs {
		for _, it := range f.Items {
			if it.Magic {
				continue
			}
			insts++
			switch it.Inst.Op {
			case asm.OpBndCLMem, asm.OpBndCUMem, asm.OpBndCLReg, asm.OpBndCUReg:
				bndChecks++
			}
		}
	}
	return insts, bndChecks
}

// imageDigest hashes every loadable field of an image in a fixed order
// (link's gob encoding walks maps in random order, so it cannot be
// compared byte for byte).
func imageDigest(img *link.Image) [32]byte {
	h := sha256.New()
	put := func(b []byte) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	put(img.Code)
	put(img.PubData)
	put(img.PrivData)
	for _, f := range img.Funcs {
		put([]byte(fmt.Sprintf("%+v", *f)))
	}
	syms := make([]string, 0, len(img.Symbols))
	for name := range img.Symbols {
		syms = append(syms, name)
	}
	sort.Strings(syms)
	for _, name := range syms {
		put([]byte(fmt.Sprintf("%s=%#x", name, img.Symbols[name])))
	}
	put([]byte(fmt.Sprintf("%q %#x %#x %+v %+v %v",
		img.Externals, img.MCallPrefix, img.MRetPrefix, img.Layout, img.Config, img.ExitShim)))
	var d [32]byte
	h.Sum(d[:0])
	return d
}
