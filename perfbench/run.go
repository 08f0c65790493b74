package main

import (
	"fmt"
	"runtime"
	"time"

	"confllvm/internal/link"
	"confllvm/internal/machine"
	"confllvm/internal/scenario"
)

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 9

// maxTracedUnits caps the traced units per phase of a traced run. A traced
// kv-serve replay records ~100k handler spans; the cap keeps the trace to
// a few tens of MB while leaving ample operations per layer.
const maxTracedUnits = 8

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

// runner holds one run's set-up state and measurements.
type runner struct {
	cfg      config
	parallel int // verifier workers: one per available processor
	linkSeed int64

	jobs  []compileJob
	cells []*specCell
	kv    *kvPhase
	tr    *Tracer // nil for an untraced run

	attempted, failed int
	errs              []string
	probeNS           float64 // median hostProbe time over the run

	// Compile references from the warm-up pass: every later image must
	// hash the same, and code_bytes sums the linked code.
	digests   [][32]byte
	codeBytes int

	compileMS [][]float64 // untraced compile operation times, per job
	kvNSReq   []float64   // untraced replays, host ns per request

	// Traced-unit accumulators.
	counts       []stageCounts // per traced compile operation
	specStats    machine.Stats
	specInstrs   []float64 // per traced kernel run
	kvStats      machine.Stats
	kvOps        int
	kvSim        handlerSim
	tracedUnitNS [3][]float64
	plainUnitNS  [3][]float64

	metrics map[string]metric
	detail  map[string]any
}

type phaseState struct {
	name   string
	share  float64
	used   time.Duration
	units  int
	traced int
	unit   func(traced bool)
}

func (r *runner) fail(n int, err error) {
	r.failed += n
	if len(r.errs) < 20 {
		r.errs = append(r.errs, err.Error())
	}
}

// run sets up setupReps times, warms every phase up once, then measures
// for cfg.seconds, giving each phase its workload share of the time.
func run(cfg config) (*runner, error) {
	r := &runner{cfg: cfg, parallel: runtime.GOMAXPROCS(0),
		linkSeed: int64(scenario.MixSeed(cfg.seed, 0x11c)>>1) | 1,
		metrics:  map[string]metric{}, detail: map[string]any{}}
	if cfg.trace {
		r.tr = newTracer()
		r.kvSim = handlerSim{}
	}
	var setupS []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		start := time.Now()
		if err := r.setup(); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}

	r.compilePass(false, false)
	r.specPass(false, false)
	r.kvReplay(false, false)
	if r.kv.ref == nil {
		return nil, fmt.Errorf("kv warm-up replay failed: %v", r.errs)
	}

	shares := workloadShares[cfg.workload]
	phases := []*phaseState{
		{name: "compile", share: shares[0], unit: func(t bool) { r.compilePass(t, true) }},
		{name: "spec-run", share: shares[1], unit: func(t bool) { r.specPass(t, true) }},
		{name: "kv-serve", share: shares[2], unit: func(t bool) { r.kvReplay(t, true) }},
	}
	minUnits := 2 // a traced run needs an untraced and a traced unit of each phase
	budget := time.Duration(cfg.seconds * float64(time.Second))
	ring := newProbeRing()
	var probes []float64
	start := time.Now()
	for {
		next := -1
		done := time.Since(start) >= budget
		for i, p := range phases {
			if done && p.units >= minUnits {
				continue
			}
			if next < 0 || float64(p.used)/p.share < float64(phases[next].used)/phases[next].share {
				next = i
			}
		}
		if next < 0 {
			break
		}
		p := phases[next]
		traced := cfg.trace && p.units%2 == 1 && p.traced < maxTracedUnits
		// Every unit starts from a collected heap, so no phase pays for
		// sweeping another phase's garbage.
		runtime.GC()
		probes = append(probes, hostProbe(ring))
		t0 := time.Now()
		p.unit(traced)
		d := time.Since(t0)
		p.used += d
		p.units++
		if traced {
			p.traced++
			r.tracedUnitNS[next] = append(r.tracedUnitNS[next], float64(d.Nanoseconds()))
		} else {
			r.plainUnitNS[next] = append(r.plainUnitNS[next], float64(d.Nanoseconds()))
		}
	}
	units := map[string]int{}
	for _, p := range phases {
		units[p.name] = p.units
	}
	r.detail["workload"] = cfg.workload
	r.detail["seed"] = cfg.seed
	r.detail["measured_s"] = time.Since(start).Seconds()
	r.detail["units"] = units
	r.probeNS = median(probes)
	r.detail["host_probe_ns"] = r.probeNS

	if cfg.trace {
		if err := r.tr.Check(); err != nil {
			r.fail(1, fmt.Errorf("span tree: %w", err))
		}
		if err := r.layerMetrics(); err != nil {
			return nil, err
		}
	} else if err := r.endToEndMetrics(setupS); err != nil {
		return nil, err
	}
	r.detail["fail_frac"] = metric{Value: float64(r.failed) / float64(r.attempted), Unit: "ratio"}
	return r, nil
}

// setup builds everything the phases need: the compile job list, the
// kernel artifacts under the compile variants and the kv-serve stream and
// server. A traced run records the traffic generation as a scenario span.
func (r *runner) setup() error {
	want, err := expectedChecksums()
	if err != nil {
		return err
	}
	r.jobs = compileJobs(r.linkSeed)
	r.compileMS = make([][]float64, len(r.jobs))
	if r.cells, err = specCells(compileVariants, r.linkSeed, r.parallel, want); err != nil {
		return err
	}
	r.kv, err = newKVPhase(r.cfg.seed, r.linkSeed, r.parallel, r.tr)
	return err
}

// compilePass compiles every job once. The first pass records the
// reference image digests; every later image, including the stage-by-stage
// compile path's in traced passes, must match them byte for byte.
func (r *runner) compilePass(traced, record bool) {
	first := r.digests == nil
	for i, j := range r.jobs {
		r.attempted++
		var img *link.Image
		var err error
		if traced {
			op := r.tr.NewOp()
			root := r.tr.Begin("compile", -1, op, false)
			var c stageCounts
			img, c, err = compileStaged(j, r.parallel, r.tr, op, root)
			r.tr.End(root)
			r.counts = append(r.counts, c)
		} else {
			start := time.Now()
			img, err = compilePublic(j, r.parallel)
			if record && err == nil {
				r.compileMS[i] = append(r.compileMS[i], float64(time.Since(start).Nanoseconds())/1e6)
			}
		}
		if err != nil {
			r.fail(1, err)
			if first {
				r.digests = append(r.digests, [32]byte{})
			}
			continue
		}
		d := imageDigest(img)
		if first {
			r.digests = append(r.digests, d)
			r.codeBytes += len(img.Code)
		} else if d != r.digests[i] {
			r.fail(1, fmt.Errorf("%s [%v]: image differs from the first pass (traced=%v)", j.name, j.v, traced))
		}
	}
}

// specPass runs every (kernel, variant) cell once.
func (r *runner) specPass(traced, record bool) {
	var tr *Tracer
	if traced {
		tr = r.tr
	}
	for _, c := range r.cells {
		r.attempted++
		ns, err := c.run(tr)
		if err != nil {
			r.fail(1, err)
			continue
		}
		switch {
		case traced:
			r.specStats.Add(*c.ref)
			r.specInstrs = append(r.specInstrs, float64(c.ref.Instrs))
		case record:
			c.mips = append(c.mips, float64(c.ref.Instrs)/(float64(ns)/1e3))
		}
	}
}

// kvReplay serves the kv-serve stream once.
func (r *runner) kvReplay(traced, record bool) {
	n := len(r.kv.wire)
	r.attempted += n
	var tr *Tracer
	var sim handlerSim
	if traced {
		tr, sim = r.tr, r.kvSim
	}
	ns, err := r.kv.serve(tr, sim)
	if err != nil {
		r.fail(n, err)
		return
	}
	switch {
	case traced:
		r.kvStats.Add(*r.kv.ref)
		r.kvOps++
	case record:
		r.kvNSReq = append(r.kvNSReq, float64(ns)/float64(n))
	}
}
