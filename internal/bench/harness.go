package bench

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"confllvm"
	"confllvm/internal/link"
	"confllvm/internal/machine"
	"confllvm/internal/obs"
	"confllvm/internal/verify"
)

// Measurement is one (workload, variant) run.
type Measurement struct {
	Variant confllvm.Variant
	Wall    uint64 // estimated wall-clock cycles
	Stats   machine.Stats
	Outputs []int64
	Res     *confllvm.Result
	// HostNS is the host wall time of the simulation itself (load + run),
	// used to report interpreter throughput (MIPS).
	HostNS int64
	// Serve is set by supervised (chaos) cells: the availability report
	// of a fault-injected serving run.
	Serve *ServeReport
	// Verify is set by verify-figure cells: throughput and mutation-kill
	// counters for checking this cell's binary.
	Verify *VerifyReport
	// Cluster is set by cluster-figure render code after merging the
	// per-shard measurements of one cluster row.
	Cluster *ClusterReport
	// Latency is set by latency-figure cells: the open-loop queueing
	// report of a traced serving run.
	Latency *LatencyReport
	// Profile is the symbolized per-function cycle profile, non-nil only
	// when the cell ran with machine profiling enabled.
	Profile *obs.Profile
}

// MIPS returns the interpreter throughput of this run in millions of
// simulated instructions per host second (0 if untimed).
func (m *Measurement) MIPS() float64 {
	if m.HostNS <= 0 {
		return 0
	}
	return float64(m.Stats.Instrs) / 1e6 / (float64(m.HostNS) / 1e9)
}

// SimClockHz is the nominal clock used to convert simulated cycles into
// seconds for throughput tables. Any fixed value yields a deterministic,
// host-independent req/s figure; 2 GHz roughly matches the paper's
// evaluation hardware.
const SimClockHz = 2_000_000_000

// ReqsPerSec converts a request count and its simulated wall-cycle cost
// into requests per second at SimClockHz (0 if untimed).
func ReqsPerSec(reqs, wallCycles uint64) uint64 {
	if wallCycles == 0 {
		return 0
	}
	return reqs * SimClockHz / wallCycles
}

// timedRun executes an artifact and records the host wall time alongside
// the result.
func timedRun(art *confllvm.Artifact, w *confllvm.World, mc *machine.Config) (*confllvm.Result, int64, error) {
	start := time.Now()
	res, err := confllvm.Run(art, w, mc)
	return res, time.Since(start).Nanoseconds(), err
}

// compileFn is the compiler entry point used by CompileCached; tests
// swap it to count or fail compilations.
var compileFn = confllvm.Compile

// gateVerify is the verify-before-load gate's entry point: the parallel
// verifier, which checks every procedure's bytes on every call. The
// verdict is byte-identical to serial verification.
func gateVerify(img *link.Image, strict bool) (verify.Stats, error) {
	return verify.VerifyStats(img, verify.Options{
		Strict:   strict,
		Parallel: runtime.GOMAXPROCS(0),
	})
}

// artEntry is one singleflight slot in the artifact cache: the first
// caller of a key compiles inside the entry's once while later callers
// for the same key block on it, and callers for other keys do not.
type artEntry struct {
	once sync.Once
	art  *confllvm.Artifact
	err  error
}

var (
	artMu    sync.Mutex // guards the map only, never held across a compile
	artCache = map[string]*artEntry{}
)

// artKey is the complete identity of a cached artifact. Everything that
// changes the compiled bits must appear here: variant plus every Program
// field (Strict, AllPrivate, Seed, NoOpt) — omitting any of them would
// hand a stale artifact to a differently-parameterized caller.
func artKey(name string, v confllvm.Variant, prog confllvm.Program) string {
	return fmt.Sprintf("%s/%v/strict=%v/allpriv=%v/seed=%d/noopt=%v",
		name, v, prog.Strict, prog.AllPrivate, prog.Seed, prog.NoOpt)
}

// CompileCached compiles a named workload for a variant, memoizing the
// artifact (benchmarks re-run the same binary many times). Concurrent
// callers with the same key share one compilation; callers with
// different keys compile in parallel. Artifacts are immutable after
// Compile, so sharing the pointer across goroutines is safe.
func CompileCached(name string, v confllvm.Variant, prog confllvm.Program) (*confllvm.Artifact, error) {
	key := artKey(name, v, prog)
	artMu.Lock()
	e, ok := artCache[key]
	if !ok {
		e = &artEntry{}
		artCache[key] = e
	}
	artMu.Unlock()
	e.once.Do(func() {
		e.art, e.err = compileFn(prog, v)
		if e.err == nil && e.art.Verifiable() {
			// Verify-before-load gate (§5.2 as deployment policy): every
			// deployable-configuration artifact the harness will ever
			// load is machine-checked first. A rejected binary never
			// reaches the loader — the artifact is discarded and the
			// error propagates to every caller of this key.
			if _, verr := gateVerify(e.art.Image, e.art.Strict); verr != nil {
				e.art, e.err = nil, fmt.Errorf("verify-before-load gate rejected binary: %w", verr)
			}
		}
		if e.err != nil {
			// Don't cache failures: drop the entry so a later caller
			// retries (a transient host-side failure would otherwise
			// poison the key for the whole process). Callers already
			// blocked on this once still see the error.
			artMu.Lock()
			if artCache[key] == e {
				delete(artCache, key)
			}
			artMu.Unlock()
		}
	})
	if e.err != nil {
		return nil, fmt.Errorf("%s [%v]: %w", name, v, e.err)
	}
	return e.art, nil
}

// Table renders a paper-style percent-of-base table: one row per workload,
// one column per configuration, cells are execution metric as % of Base.
// Set and the accessors are safe for concurrent use; row order in String
// is sorted, so the rendering is independent of insertion order.
type Table struct {
	Title    string
	Columns  []confllvm.Variant
	mu       sync.Mutex
	rowNames []string
	cells    map[string]map[confllvm.Variant]float64
	absolute map[string]uint64 // Base absolute value per row
	// HigherIsBetter flips the ratio (throughput tables).
	HigherIsBetter bool
	Unit           string
}

// NewTable creates an empty table.
func NewTable(title string, cols []confllvm.Variant, unit string) *Table {
	return &Table{Title: title, Columns: cols, Unit: unit,
		cells:    map[string]map[confllvm.Variant]float64{},
		absolute: map[string]uint64{}}
}

// Set records a measurement for (row, variant).
func (t *Table) Set(row string, v confllvm.Variant, value uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.cells[row]; !ok {
		t.cells[row] = map[confllvm.Variant]float64{}
		t.rowNames = append(t.rowNames, row)
	}
	t.cells[row][v] = float64(value)
	if v == confllvm.VariantBase {
		t.absolute[row] = value
	}
}

// Overhead returns a variant's cell as percent overhead relative to Base
// for a row (positive = slower, or lower throughput when HigherIsBetter).
func (t *Table) Overhead(row string, v confllvm.Variant) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	base := t.cells[row][confllvm.VariantBase]
	val := t.cells[row][v]
	if base == 0 || val == 0 {
		return 0
	}
	if t.HigherIsBetter {
		return (base/val - 1) * 100
	}
	return (val/base - 1) * 100
}

// String renders the table like the paper's figures: percent of Base per
// configuration with the absolute baseline annotated.
func (t *Table) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	fmt.Fprintf(&b, "%-14s", "workload")
	for _, v := range t.Columns {
		fmt.Fprintf(&b, "%14v", v)
	}
	fmt.Fprintf(&b, "%16s\n", "Base("+t.Unit+")")
	rows := append([]string{}, t.rowNames...)
	sort.Strings(rows)
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s", r)
		base := t.cells[r][confllvm.VariantBase]
		for _, v := range t.Columns {
			if base == 0 {
				fmt.Fprintf(&b, "%14s", "-")
				continue
			}
			fmt.Fprintf(&b, "%13.1f%%", t.cells[r][v]/base*100)
		}
		fmt.Fprintf(&b, "%16d\n", t.absolute[r])
	}
	return b.String()
}

// GeoMeanOverhead computes the geometric-mean ratio (vs Base) across rows
// for one variant, returned as percent overhead.
func (t *Table) GeoMeanOverhead(v confllvm.Variant) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	prod := 1.0
	n := 0
	for _, r := range t.rowNames {
		base := t.cells[r][confllvm.VariantBase]
		val := t.cells[r][v]
		if base == 0 || val == 0 {
			continue
		}
		ratio := val / base
		if t.HigherIsBetter {
			ratio = base / val
		}
		prod *= ratio
		n++
	}
	if n == 0 {
		return 0
	}
	return (math.Pow(prod, 1.0/float64(n)) - 1) * 100
}
