package bench

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"strings"
	"time"

	"confllvm"
	"confllvm/internal/verify"
	"confllvm/internal/verify/verifymut"
)

// VerifyReport is one verify-figure cell: the verifier run against a
// workload's linked binary. The counters (Funcs, Stubs, Insts, CodeBytes,
// MutantsTried, MutantsKilled) are pure functions of the binary and the
// mutation seed — byte-identical under any scheduling or -parallel
// setting. Only the *NS fields are host-time and may vary run to run.
type VerifyReport struct {
	Funcs, Stubs, Insts int
	CodeBytes           int
	// Workers is the parallel lane's worker count (host property).
	Workers int
	// SerialNS / ParallelNS time a full check on one and on Workers
	// goroutines: each is the median of verifyTimingPairs interleaved
	// serial/parallel pairs, so one descheduled call cannot swing the
	// ratio.
	SerialNS, ParallelNS int64
	// MutantsTried counts the seeded verifymut mutants applicable to this
	// binary; MutantsKilled counts those the verifier rejected with the
	// structured error the mutator's contract demands (offset and message).
	// The figure fails loudly when Killed < Tried: a surviving mutant is a
	// verifier soundness hole, not a slow cell.
	MutantsTried, MutantsKilled int
}

// FuncsPerSec is parallel check throughput (0 if untimed).
func (r *VerifyReport) FuncsPerSec() float64 {
	if r.ParallelNS <= 0 {
		return 0
	}
	return float64(r.Funcs) / (float64(r.ParallelNS) / 1e9)
}

// InstsPerSec is parallel check instruction throughput.
func (r *VerifyReport) InstsPerSec() float64 {
	if r.ParallelNS <= 0 {
		return 0
	}
	return float64(r.Insts) / (float64(r.ParallelNS) / 1e9)
}

// Speedup is median serial time over median parallel time (about 1.0 on
// a single-core host).
func (r *VerifyReport) Speedup() float64 {
	if r.ParallelNS <= 0 {
		return 0
	}
	return float64(r.SerialNS) / float64(r.ParallelNS)
}

// verifySeed derives a per-cell mutation seed from the base seed and the
// cell's identity, so every cell mutates different sites yet the whole
// figure is a pure function of the base seed.
func verifySeed(seed uint64, key string, v confllvm.Variant) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%v", key, v)
	return seed ^ h.Sum64()
}

// VerifyCells expands the verify figure into matrix cells: every workload
// under both deployable schemes, each cell checking the workload's binary
// serially and in parallel, then running the seeded mutation corpus
// against it. Cells are Serial — the host-time throughput numbers are the
// measurement, so they must not share the host with concurrently running
// cells.
func VerifyCells(figure string, wls []Workload, vs []confllvm.Variant, seed uint64) []Cell {
	var cells []Cell
	for _, wl := range wls {
		for _, v := range vs {
			wl := wl
			cells = append(cells, Cell{
				Figure:   figure,
				Row:      wl.Name,
				Workload: wl,
				Variant:  v,
				Serial:   true,
				Custom: func(c *Cell) (*Measurement, error) {
					start := time.Now()
					rep, err := verifyCell(c.Workload, c.Variant, seed)
					if err != nil {
						return nil, err
					}
					return &Measurement{
						Variant: c.Variant,
						HostNS:  time.Since(start).Nanoseconds(),
						Verify:  rep,
					}, nil
				},
			})
		}
	}
	return cells
}

// verifyTimingPairs is how many interleaved serial/parallel checks a
// verify cell times; it reports the median of each lane.
const verifyTimingPairs = 5

// median returns the median of an odd-length sample, sorting it in place.
func median(ns []int64) int64 {
	slices.Sort(ns)
	return ns[len(ns)/2]
}

// verifyCell measures one (workload, variant) verify cell. It re-checks
// the parallel verdict against the serial one and fails the cell on any
// divergence — the figure is also a determinism test.
func verifyCell(wl Workload, v confllvm.Variant, seed uint64) (*VerifyReport, error) {
	art, err := CompileCached(wl.Key, v, wl.Prog(v))
	if err != nil {
		return nil, err
	}
	img := art.Image
	opts := verify.Options{Strict: art.Strict}
	workers := runtime.GOMAXPROCS(0)

	popts := opts
	popts.Parallel = workers
	var serial verify.Stats
	var serialNS, parallelNS [verifyTimingPairs]int64
	for i := range serialNS {
		t0 := time.Now()
		st, err := verify.VerifyStats(img, opts)
		serialNS[i] = time.Since(t0).Nanoseconds()
		if err != nil {
			return nil, fmt.Errorf("verify %s [%v]: %w", wl.Name, v, err)
		}
		t0 = time.Now()
		par, err := verify.VerifyStats(img, popts)
		parallelNS[i] = time.Since(t0).Nanoseconds()
		if err != nil {
			return nil, fmt.Errorf("parallel verify %s [%v]: %w", wl.Name, v, err)
		}
		if par != st {
			return nil, fmt.Errorf("verify %s [%v]: parallel stats %+v diverge from serial %+v",
				wl.Name, v, par, st)
		}
		serial = st
	}

	rep := &VerifyReport{
		Funcs:      serial.Funcs,
		Stubs:      serial.Stubs,
		Insts:      serial.Insts,
		CodeBytes:  len(img.Code),
		Workers:    workers,
		SerialNS:   median(serialNS[:]),
		ParallelNS: median(parallelNS[:]),
	}

	// The gate-rejection column: every seeded mutant must be killed with
	// the structured error its mutator pinned. A mutant only counts as
	// killed when the offset and message match the contract — a rejection
	// for the wrong reason would mask a soundness hole just as well as an
	// acceptance.
	for _, mut := range verifymut.Generate(img, verifySeed(seed, wl.Key, v)) {
		rep.MutantsTried++
		if killedByContract(mut, opts) {
			rep.MutantsKilled++
		}
	}
	return rep, nil
}

// killedByContract reports whether the verifier rejects the mutant with
// the error its mutator demands (serial and parallel must agree).
func killedByContract(mut *verifymut.Mutant, opts verify.Options) bool {
	serr := verify.Verify(mut.Image, opts)
	popts := opts
	popts.Parallel = 8
	perr := verify.Verify(mut.Image, popts)
	var sv, pv *verify.Error
	if !errors.As(serr, &sv) || !errors.As(perr, &pv) || *sv != *pv {
		return false
	}
	for _, off := range mut.WantOffs {
		if sv.Off == off {
			return mut.WantMsg == "" || strings.Contains(sv.Msg, mut.WantMsg)
		}
	}
	return false
}
