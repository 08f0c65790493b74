// confbench regenerates the paper's evaluation tables (Figures 5-8 and
// §7.3) directly, without the testing framework.
//
// Usage:
//
//	confbench [-figure all|5|ablation|6|ldap|7|8|throughput|scenarios|faults|verify|cluster|latency|interp]
//	          [-superblocks=true|false]
//	          [-parallel N] [-seed N] [-short] [-list]
//	          [-json] [-out BENCH_interp.json] [-profile FILE]
//
// Figures register in one place (figureRegistry); the -figure usage
// string and the -list output derive from it, so the line above and the
// flag help cannot drift from the real set.
//
// The "ablation" figure reproduces the §5.1 claim that the MPX check
// optimizations pay off: every SPEC kernel under Base, OurMPX and
// OurMPX-Naive (OurMPX with those optimizations disabled), rendered like
// Figure 5.
//
// The "scenarios" figure is the seeded traffic sweep: internal/scenario
// expands a grid of (request multiplier x hit ratio) specs for the
// confidential KV store and the TLS-ish handshake, and every cell's
// request stream is a pure function of -seed — the printed table is
// byte-identical across runs, dispatch modes and -parallel settings.
// The "faults" figure serves the same scenario traffic through the bench
// supervisor under seeded fault injection (internal/chaos) and reports
// availability, recovery latency and verify-gate rejections; it shares
// the scenarios figure's determinism contract because the injector and
// the simulated clock are the only randomness sources and both derive
// from -seed. -short shrinks the grids to a smoke size; -list prints the
// known figures and registered workloads and exits.
//
// The "verify" figure turns the load gate itself into an evaluation
// target: every workload's binary under both deployable schemes is
// checked serially and in parallel, and the seeded verifymut mutation
// corpus is run against it. The per-binary counters (functions, stubs,
// instructions, mutants tried/killed) are pure functions of the bits and
// -seed, so that part of the table is byte-identical across -parallel
// settings — the nightly job diffs it — while the throughput lines
// (funcs/s, insts/s, dispatch speedup) are host time and carry a "(host)"
// marker so diffs can strip them. A mutation kill rate below 100% fails
// the figure: a surviving mutant is a verifier soundness hole.
//
// The "cluster" figure lifts the single-machine assumption: a
// deterministic router partitions the KV key space across 1/4/16 shard
// machines (every shard serving through the same gate-verified binary),
// client skew (uniform vs seeded zipf) stresses routing balance, and
// cross-shard scans fan out into per-owner sub-requests. Shards run as
// ordinary matrix cells; per-cluster rows merge their simulated clocks
// with commutative folds (aggregate req/s = client requests over the
// slowest shard), so the table inherits the full determinism contract.
//
// The "latency" figure is the observability plane's flagship table: the
// KV scenario's per-request service times, measured at the trusted recv
// boundary in simulated cycles, are replayed through a deterministic
// FIFO queue fed by seeded open-loop arrival processes (uniform,
// Poisson, bursty) at three offered loads, and the p50/p95/p99/max
// latency plus queue-depth columns come out byte-identical across
// -parallel and -superblocks. -profile FILE additionally turns
// on the machine's cycle-attribution profiler for every table cell and
// writes one merged folded-stack profile (symbol + cycles per line,
// flamegraph-ready); profile totals conserve the runs' cycle counters
// exactly, and the disabled profiler costs nothing.
//
// Every (figure, workload, variant) cell is an independent simulation —
// its own compiled artifact and its own machine.Machine — so the whole
// matrix is scheduled across a worker pool (-parallel, default
// GOMAXPROCS) and the tables are assembled from the results in input
// order: the printed figure tables are byte-identical between -parallel=1
// and any parallel run, because every table cell is a simulated quantity.
// Only the interp sweep measures host time; its cells are pinned to a
// serial lane that runs after the pool drains, so MIPS numbers always
// come from a quiet host.
//
// With -json, every measurement (simulated wall cycles, instruction count,
// host run time, interpreter MIPS) is also written to a JSON file so later
// changes have a perf trajectory to compare against. The report's
// top-level "history" object holds the perf-history columns, each set by
// the figure that owns it as it renders: interp_geomean (interp's
// superblock-vs-stepwise MIPS speedup), interp_block_ms (interp's host ms
// per workload under superblock dispatch: real-workload wall time, the
// column to read when a change removes cheap instructions and MIPS falls
// while the work gets done sooner), faults_avail_geomean (faults'
// availability %), verify_funcs_per_sec (verify's per-binary checking
// throughput, host time), cluster_reqs_per_sec (cluster's aggregate
// simulated req/s) and latency_p99_cycles (latency's p99 in simulated
// cycles). Each is the geometric mean over the figure's rows, skipping
// values <= 0; a column whose figure did not run, or had no positive
// value, is absent. cmd/benchhistory copies this object into
// BENCH_history.jsonl.
//
// -superblocks=false replays everything with per-instruction stepping
// instead of chained superblock dispatch. The figure tables must come
// out byte-identical either way (the nightly CI job diffs the stepwise
// and -parallel=1 renders against the default one). The "interp"
// figure runs every workload in both dispatch modes back to back,
// verifies the simulated cycles agree, and reports the dispatch speedup.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"confllvm"
	"confllvm/internal/bench"
	"confllvm/internal/machine"
	"confllvm/internal/obs"
	"confllvm/internal/scenario"
)

// benchRow is one (figure, workload, variant) measurement in the JSON
// report. Variant is a confllvm configuration name, or a dispatch mode
// ("superblock"/"stepwise") for the interp figure. host_ns/mips are only
// quiet-host measurements for interp rows (their cells run in the serial
// lane); figure-table rows run concurrently when parallel > 1, so their
// host times are contended — compare them across reports only at equal
// "parallel" settings, or rely on the interp rows for the trajectory.
type benchRow struct {
	Figure     string  `json:"figure"`
	Workload   string  `json:"workload"`
	Variant    string  `json:"variant"`
	WallCycles uint64  `json:"wall_cycles"`
	Instrs     uint64  `json:"instrs"`
	HostNS     int64   `json:"host_ns"`
	MIPS       float64 `json:"mips"`
	// Availability columns, set only for supervised (faults-figure) rows.
	// All simulated quantities; recovery latencies are simulated cycles.
	TotalReqs          int     `json:"total_reqs,omitempty"`
	Served             int     `json:"served,omitempty"`
	AvailPct           float64 `json:"avail_pct,omitempty"`
	ServedPerSec       uint64  `json:"served_per_sec,omitempty"`
	Restarts           int     `json:"restarts,omitempty"`
	RecoveryMeanCycles uint64  `json:"recovery_mean_cycles,omitempty"`
	RecoveryMaxCycles  uint64  `json:"recovery_max_cycles,omitempty"`
	VerifyRejections   int     `json:"verify_rejections,omitempty"`
	Shed               int     `json:"shed,omitempty"`
	Rejected           int     `json:"rejected,omitempty"`

	// Verify columns, set only for verify-figure rows. The counters are
	// deterministic; the *_ns and per-sec fields are host time (cells run
	// in the serial lane, so they are quiet-host measurements).
	VerifyFuncs       int     `json:"verify_funcs,omitempty"`
	VerifyStubs       int     `json:"verify_stubs,omitempty"`
	VerifyInsts       int     `json:"verify_insts,omitempty"`
	CodeBytes         int     `json:"code_bytes,omitempty"`
	VerifyParallelNS  int64   `json:"verify_parallel_ns,omitempty"`
	VerifyFuncsPerSec float64 `json:"verify_funcs_per_sec,omitempty"`
	VerifyInstsPerSec float64 `json:"verify_insts_per_sec,omitempty"`
	MutantsTried      int     `json:"mutants_tried,omitempty"`
	MutantsKilled     int     `json:"mutants_killed,omitempty"`

	// Cluster columns, set only for cluster-figure rows. Each such row is
	// one whole cluster (shard measurements merged by commutative clock
	// folds); wall_cycles is the cluster wall clock (slowest shard) and
	// instrs the cross-shard sum. All simulated quantities.
	Shards         int    `json:"shards,omitempty"`
	ClientReqs     int    `json:"client_reqs,omitempty"`
	AggReqsPerSec  uint64 `json:"agg_reqs_per_sec,omitempty"`
	ShardReqMin    int    `json:"shard_req_min,omitempty"`
	ShardReqMax    int    `json:"shard_req_max,omitempty"`
	ShardCyclesMin uint64 `json:"shard_cycles_min,omitempty"`
	ShardCyclesMax uint64 `json:"shard_cycles_max,omitempty"`
	ScanSplits     int    `json:"scan_splits,omitempty"`
	CrossScans     int    `json:"cross_scans,omitempty"`

	// Latency columns, set only for latency-figure rows: the open-loop
	// queueing report of internal/bench.RunLatency. All simulated
	// quantities in cycles at bench.SimClockHz.
	ArrivalKind   string `json:"arrival_kind,omitempty"`
	MeanGapCycles uint64 `json:"mean_gap_cycles,omitempty"`
	OfferedRPS    uint64 `json:"offered_rps,omitempty"`
	SvcMeanCycles uint64 `json:"svc_mean_cycles,omitempty"`
	LatP50Cycles  uint64 `json:"latency_p50_cycles,omitempty"`
	LatP95Cycles  uint64 `json:"latency_p95_cycles,omitempty"`
	LatP99Cycles  uint64 `json:"latency_p99_cycles,omitempty"`
	LatMaxCycles  uint64 `json:"latency_max_cycles,omitempty"`
	MaxQueue      uint64 `json:"max_queue,omitempty"`
}

// benchReport is the -json report schema (BENCH_interp.json,
// BENCH_nightly.json).
type benchReport struct {
	GeneratedAt string `json:"generated_at"`
	// FigureFilter records the -figure selection so partial runs are never
	// mistaken for a full-suite trajectory point.
	FigureFilter string `json:"figure_filter"`
	// Superblocks records the dispatch mode of the figure-table runs.
	Superblocks bool `json:"superblocks"`
	// Parallel is the worker count the matrix ran with.
	Parallel    int    `json:"parallel"`
	TotalInstrs uint64 `json:"total_instrs"`
	// TotalHostNS sums per-cell host time. With concurrent cells this is
	// aggregate CPU time, not elapsed time — dividing instructions by it
	// would overstate nothing but understate parallel speedup; the honest
	// throughput denominator is SuiteWallNS.
	TotalHostNS int64 `json:"total_host_ns"`
	// SuiteWallNS is the true elapsed time of the whole matrix run.
	SuiteWallNS int64   `json:"suite_wall_ns"`
	MIPS        float64 `json:"mips"` // TotalInstrs / SuiteWallNS, in millions/sec
	// History maps each perf-history column to its value (see the
	// package doc); only figures that ran contribute.
	History map[string]float64 `json:"history,omitempty"`
	Rows    []benchRow         `json:"rows"`
}

var (
	reportMu sync.Mutex
	report   *benchReport
	// mcfg is the machine configuration used for the figure tables,
	// controlled by -superblocks.
	mcfg machine.Config
	// scenarioSeed and shortGrid parameterize the scenarios sweep
	// (-seed / -short).
	scenarioSeed uint64
	shortGrid    bool
)

// record adds a measurement to the JSON report (no-op without -json).
// It is mutex-guarded so figures may record from any goroutine; row
// order is nevertheless deterministic because renders run sequentially
// over matrix results that are already in input order.
func record(figure, workload, variant string, m *bench.Measurement) {
	reportMu.Lock()
	defer reportMu.Unlock()
	if report == nil {
		return
	}
	report.TotalInstrs += m.Stats.Instrs
	report.TotalHostNS += m.HostNS
	row := benchRow{
		Figure: figure, Workload: workload, Variant: variant,
		WallCycles: m.Wall, Instrs: m.Stats.Instrs, HostNS: m.HostNS,
		MIPS: m.MIPS(),
	}
	if rep := m.Serve; rep != nil {
		row.TotalReqs = rep.Total
		row.Served = rep.Served
		row.AvailPct = rep.AvailabilityPct()
		row.ServedPerSec = rep.ServedPerSec()
		row.Restarts = rep.Restarts
		row.RecoveryMeanCycles = rep.RecoveryMean()
		row.RecoveryMaxCycles = rep.RecoveryMax()
		row.VerifyRejections = rep.VerifyRejections
		row.Shed = rep.Shed
		row.Rejected = rep.Rejected
	}
	if rep := m.Verify; rep != nil {
		row.VerifyFuncs = rep.Funcs
		row.VerifyStubs = rep.Stubs
		row.VerifyInsts = rep.Insts
		row.CodeBytes = rep.CodeBytes
		row.VerifyParallelNS = rep.ParallelNS
		row.VerifyFuncsPerSec = rep.FuncsPerSec()
		row.VerifyInstsPerSec = rep.InstsPerSec()
		row.MutantsTried = rep.MutantsTried
		row.MutantsKilled = rep.MutantsKilled
	}
	if rep := m.Latency; rep != nil {
		row.TotalReqs = int(rep.Requests)
		row.ArrivalKind = rep.Kind
		row.MeanGapCycles = rep.MeanGap
		row.OfferedRPS = rep.OfferedRPS
		row.SvcMeanCycles = rep.SvcMean
		row.LatP50Cycles = rep.P50
		row.LatP95Cycles = rep.P95
		row.LatP99Cycles = rep.P99
		row.LatMaxCycles = rep.Max
		row.MaxQueue = rep.MaxQueue
	}
	if rep := m.Cluster; rep != nil {
		row.Shards = rep.Shards
		row.ClientReqs = rep.ClientRequests
		row.AggReqsPerSec = rep.AggReqsPerSec()
		row.ShardReqMin = rep.MinShardReqs
		row.ShardReqMax = rep.MaxShardReqs
		row.ShardCyclesMin = rep.MinShardCycles
		row.ShardCyclesMax = rep.MaxShardCycles
		row.ScanSplits = rep.ScanSplits
		row.CrossScans = rep.CrossScans
	}
	report.Rows = append(report.Rows, row)
}

// geomean is the geometric mean of the positive values in vals; ok is
// false when there are none. Values <= 0 (untimed or dead cells) are
// skipped so they never fold -Inf or NaN into an aggregate.
func geomean(vals []float64) (g float64, ok bool) {
	var logSum float64
	var n int
	for _, v := range vals {
		if v <= 0 {
			continue
		}
		logSum += math.Log(v)
		n++
	}
	if n == 0 {
		return 0, false
	}
	return math.Exp(logSum / float64(n)), true
}

// recordHistory sets one history column of the JSON report to the
// geomean of vals (no-op without -json, or when no value is positive).
func recordHistory(column string, vals []float64) {
	g, ok := geomean(vals)
	reportMu.Lock()
	defer reportMu.Unlock()
	if report == nil || !ok {
		return
	}
	if report.History == nil {
		report.History = map[string]float64{}
	}
	report.History[column] = g
}

// renderFn consumes a figure's slice of the matrix results (in cell
// order) and prints its table.
type renderFn func([]bench.CellResult) error

// figureSpec is one figure: build returns the figure's cells plus the
// render that assembles them once the matrix has run.
type figureSpec struct {
	name  string
	build func() ([]bench.Cell, renderFn)
}

// figureRegistry is the single source of truth for -figure: the flag's
// usage string, the -list output and the selection logic all derive from
// this slice, so registering a figure here is the *only* step — a guard
// test pins that every registered figure is listed and that unknown
// names error with a pointer to -list.
var figureRegistry = []figureSpec{
	{"5", fig5}, {"ablation", ablation}, {"6", fig6}, {"ldap", ldap}, {"7", fig7}, {"8", fig8},
	{"throughput", throughput}, {"scenarios", scenarios}, {"faults", faults},
	{"verify", verifyFigure}, {"cluster", cluster}, {"latency", latencyFigure},
	{"interp", interp},
}

// figureNames renders the registry as the -figure usage enumeration.
func figureNames() string {
	names := "all"
	for _, f := range figureRegistry {
		names += ", " + f.name
	}
	return names
}

// figuresFor resolves a -figure selection against the registry ("all" =
// every figure, in registry order).
func figuresFor(name string) ([]figureSpec, error) {
	if name == "all" {
		return figureRegistry, nil
	}
	for _, f := range figureRegistry {
		if f.name == name {
			return []figureSpec{f}, nil
		}
	}
	return nil, fmt.Errorf("unknown figure %q (run confbench -list for the valid set)", name)
}

func main() {
	figure := flag.String("figure", "all", "which figure to regenerate: "+figureNames())
	superblocks := flag.Bool("superblocks", true, "dispatch basic blocks (false = per-instruction stepping)")
	parallel := flag.Int("parallel", 0, "worker goroutines for the bench matrix (0 = GOMAXPROCS, 1 = serial)")
	seed := flag.Uint64("seed", scenario.DefaultSeed, "base seed of the scenario traffic engine")
	short := flag.Bool("short", false, "shrink the scenarios grid to a smoke size")
	list := flag.Bool("list", false, "print known figures and registered workloads, then exit")
	jsonOut := flag.Bool("json", false, "also write a JSON perf report")
	outPath := flag.String("out", "BENCH_interp.json", "path of the JSON report (with -json)")
	profilePath := flag.String("profile", "", "enable cycle profiling and write the merged folded-stack profile of every cell to this file")
	flag.Parse()

	mcfg = machine.DefaultConfig()
	mcfg.Superblocks = *superblocks
	mcfg.Profile = *profilePath != ""
	scenarioSeed = *seed
	shortGrid = *short

	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	if *jsonOut {
		report = &benchReport{
			GeneratedAt:  time.Now().UTC().Format(time.RFC3339),
			FigureFilter: *figure,
			Superblocks:  *superblocks,
			Parallel:     workers,
		}
		if *figure != "all" && *outPath == "BENCH_interp.json" {
			fmt.Fprintf(os.Stderr, "confbench: note: partial run (-figure %s) writing the default %s; "+
				"aggregate MIPS and row counts are not comparable to full-suite reports\n", *figure, *outPath)
		}
	}

	if *list {
		fmt.Println("figures:")
		fmt.Println("  all")
		for _, f := range figureRegistry {
			fmt.Printf("  %s\n", f.name)
		}
		fmt.Println("workloads:")
		for _, wl := range bench.Workloads(false) {
			fmt.Printf("  %-22s (artifact key %q)\n", wl.Name, wl.Key)
		}
		return
	}

	selected, err := figuresFor(*figure)
	if err != nil {
		fmt.Fprintf(os.Stderr, "confbench: %v\n", err)
		os.Exit(2)
	}

	// Build the combined cell matrix for the selected figures, remembering
	// each figure's slice so renders run in figure order afterwards.
	var cells []bench.Cell
	type pending struct {
		name   string
		lo, hi int
		render renderFn
	}
	var pend []pending
	for _, f := range selected {
		cs, render := f.build()
		pend = append(pend, pending{f.name, len(cells), len(cells) + len(cs), render})
		cells = append(cells, cs...)
	}

	start := time.Now()
	results := bench.RunMatrix(cells, workers)
	suiteWall := time.Since(start)

	for _, p := range pend {
		if err := p.render(results[p.lo:p.hi]); err != nil {
			fmt.Fprintf(os.Stderr, "confbench: figure %s: %v\n", p.name, err)
			os.Exit(1)
		}
	}

	if *profilePath != "" {
		// Per-cell profiles fold commutatively, so the merged profile is
		// independent of matrix scheduling. Cells running under their own
		// machine configs (the interp MIPS lanes, supervised epochs)
		// deliberately do not profile and contribute nothing.
		merged := obs.NewFuncProfile()
		var cellsProfiled int
		for _, r := range results {
			if r.M != nil && r.M.Profile != nil {
				merged.Merge(r.M.Profile)
				cellsProfiled++
			}
		}
		if err := os.WriteFile(*profilePath, []byte(merged.Folded()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "confbench: write profile: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d symbols from %d cells, %d cycles attributed)\n",
			*profilePath, len(merged.Top()), cellsProfiled, merged.TotalCycles())
	}

	if report != nil {
		report.SuiteWallNS = suiteWall.Nanoseconds()
		if report.SuiteWallNS > 0 {
			report.MIPS = float64(report.TotalInstrs) / 1e6 / (float64(report.SuiteWallNS) / 1e9)
		}
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "confbench: marshal report: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*outPath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "confbench: write report: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d rows, %d workers, suite throughput %.1f MIPS)\n",
			*outPath, len(report.Rows), workers, report.MIPS)
	}
}

// tableRow is one figure-table row: its name, workload, and the Wall
// divisor for the table cell (0 = absolute cycles).
type tableRow struct {
	name  string
	wl    bench.Workload
	scale uint64
}

// tableCells builds the cross product of rows x cols for one figure.
func tableCells(figure string, rows []tableRow, cols []confllvm.Variant) []bench.Cell {
	var cells []bench.Cell
	for _, r := range rows {
		for _, v := range cols {
			cells = append(cells, bench.Cell{
				Figure: figure, Row: r.name, Workload: r.wl,
				Variant: v, Conf: &mcfg, Scale: r.scale,
			})
		}
	}
	return cells
}

// renderTable fills tbl from results and records the JSON rows. value
// converts a measurement into the table cell; nil selects the default
// (Wall, divided by the cell's Scale).
func renderTable(figure string, tbl *bench.Table, results []bench.CellResult,
	value func(bench.CellResult) uint64) error {
	if value == nil {
		value = func(r bench.CellResult) uint64 {
			v := r.M.Wall
			if r.Cell.Scale > 1 {
				v /= r.Cell.Scale
			}
			return v
		}
	}
	for _, r := range results {
		if r.Err != nil {
			return r.Err
		}
		tbl.Set(r.Cell.Row, r.Cell.Variant, value(r))
		record(figure, r.Cell.Row, r.Cell.Variant.String(), r.M)
	}
	fmt.Println(tbl)
	return nil
}

// printGeomeans prints the CFI/MPX/Seg geomean-overhead line fig5 and
// the throughput table share.
func printGeomeans(prefix string, tbl *bench.Table) {
	fmt.Printf("%s: CFI=%.1f%%  MPX=%.1f%%  Seg=%.1f%%\n\n", prefix,
		tbl.GeoMeanOverhead(confllvm.VariantCFI),
		tbl.GeoMeanOverhead(confllvm.VariantMPX),
		tbl.GeoMeanOverhead(confllvm.VariantSeg))
}

func fig5() ([]bench.Cell, renderFn) {
	cols := []confllvm.Variant{confllvm.VariantBase, confllvm.VariantBaseOA,
		confllvm.VariantBare, confllvm.VariantCFI, confllvm.VariantMPX, confllvm.VariantSeg}
	tbl := bench.NewTable("Figure 5: SPEC CPU 2006 execution time (% of Base)", cols, "cyc")
	var rows []tableRow
	for _, k := range bench.SPECKernels() {
		rows = append(rows, tableRow{k.Name, bench.SPECWorkload(k, k.Params), 0})
	}
	render := func(results []bench.CellResult) error {
		if err := renderTable("fig5", tbl, results, nil); err != nil {
			return err
		}
		printGeomeans("geomean overheads", tbl)
		return nil
	}
	return tableCells("fig5", rows, cols), render
}

// ablation is the §5.1 MPX ablation: every SPEC kernel under OurMPX and
// under OurMPX-Naive, which checks every access (no rsp-check elision and
// no block-local check coalescing), both as % of Base.
func ablation() ([]bench.Cell, renderFn) {
	cols := []confllvm.Variant{confllvm.VariantBase, confllvm.VariantMPX, confllvm.VariantMPXNaive}
	tbl := bench.NewTable("Ablation: §5.1 MPX check optimizations, SPEC execution time (% of Base)", cols, "cyc")
	var rows []tableRow
	for _, k := range bench.SPECKernels() {
		rows = append(rows, tableRow{k.Name, bench.SPECWorkload(k, k.Params), 0})
	}
	render := func(results []bench.CellResult) error {
		if err := renderTable("ablation", tbl, results, nil); err != nil {
			return err
		}
		fmt.Printf("geomean overheads: OurMPX=%.1f%%  OurMPX-Naive=%.1f%%\n\n",
			tbl.GeoMeanOverhead(confllvm.VariantMPX),
			tbl.GeoMeanOverhead(confllvm.VariantMPXNaive))
		return nil
	}
	return tableCells("ablation", rows, cols), render
}

func fig6() ([]bench.Cell, renderFn) {
	cols := []confllvm.Variant{confllvm.VariantBase, confllvm.VariantOneMem,
		confllvm.VariantBare, confllvm.VariantCFI, confllvm.VariantMPXSep, confllvm.VariantMPX}
	tbl := bench.NewTable("Figure 6: NGINX cycles per request (% of Base)", cols, "cyc/req")
	const reqs = 32
	var rows []tableRow
	for _, kb := range []int{0, 1, 2, 5, 10, 20, 40} {
		rows = append(rows, tableRow{fmt.Sprintf("resp-%02dKB", kb),
			bench.WebWorkload(reqs, kb*1024), reqs})
	}
	render := func(results []bench.CellResult) error {
		return renderTable("fig6", tbl, results, nil)
	}
	return tableCells("fig6", rows, cols), render
}

func ldap() ([]bench.Cell, renderFn) {
	cols := []confllvm.Variant{confllvm.VariantBase, confllvm.VariantMPX}
	tbl := bench.NewTable("Section 7.3: OpenLDAP cycles per query (% of Base)", cols, "cyc/q")
	const queries = 2000
	rows := []tableRow{
		{"query-miss", bench.LDAPWorkload(queries, 100), queries},
		{"query-hit", bench.LDAPWorkload(queries, 0), queries},
	}
	render := func(results []bench.CellResult) error {
		return renderTable("ldap", tbl, results, nil)
	}
	return tableCells("ldap", rows, cols), render
}

func fig7() ([]bench.Cell, renderFn) {
	cols := []confllvm.Variant{confllvm.VariantBase, confllvm.VariantBaseOA,
		confllvm.VariantBare, confllvm.VariantCFI, confllvm.VariantMPX}
	tbl := bench.NewTable("Figure 7: Privado classification latency (% of Base)", cols, "cyc/img")
	const images = 4
	rows := []tableRow{{"classify", bench.ClassifierWorkload(images), images}}
	render := func(results []bench.CellResult) error {
		return renderTable("fig7", tbl, results, nil)
	}
	return tableCells("fig7", rows, cols), render
}

func fig8() ([]bench.Cell, renderFn) {
	cols := []confllvm.Variant{confllvm.VariantBase, confllvm.VariantSeg, confllvm.VariantMPX}
	tbl := bench.NewTable("Figure 8: Merkle-FS parallel read, total time (% of Base)", cols, "cyc")
	var rows []tableRow
	for _, n := range []int{1, 2, 3, 4, 5, 6} {
		rows = append(rows, tableRow{fmt.Sprintf("%d-threads", n),
			bench.MerkleWorkload(256, n), 0})
	}
	render := func(results []bench.CellResult) error {
		return renderTable("fig8", tbl, results, nil)
	}
	return tableCells("fig8", rows, cols), render
}

// throughput is the scaled-traffic table the parallel matrix makes
// affordable: the webserver and LDAP drivers at 10x the request counts
// of their figure runs, reported as requests per second at the
// simulated clock (bench.SimClockHz). Cells are simulated quantities, so
// the table is deterministic and parallel-safe.
func throughput() ([]bench.Cell, renderFn) {
	cols := []confllvm.Variant{confllvm.VariantBase, confllvm.VariantCFI,
		confllvm.VariantMPX, confllvm.VariantSeg}
	tbl := bench.NewTable(
		fmt.Sprintf("Throughput: sustained requests/sec at a %.1f GHz simulated clock (%% of Base)",
			float64(bench.SimClockHz)/1e9), cols, "req/s")
	tbl.HigherIsBetter = true
	const webReqs = 320       // 10x the Figure 6 run
	const ldapQueries = 20000 // 10x the §7.3 run
	rows := []tableRow{
		{"web-2KB", bench.WebWorkload(webReqs, 2*1024), webReqs},
		{"web-10KB", bench.WebWorkload(webReqs, 10*1024), webReqs},
		{"ldap-hit", bench.LDAPWorkload(ldapQueries, 0), ldapQueries},
		{"ldap-miss", bench.LDAPWorkload(ldapQueries, 100), ldapQueries},
	}
	render := func(results []bench.CellResult) error {
		err := renderTable("throughput", tbl, results, func(r bench.CellResult) uint64 {
			return bench.ReqsPerSec(r.Cell.Scale, r.M.Wall)
		})
		if err != nil {
			return err
		}
		printGeomeans("geomean throughput overheads", tbl)
		return nil
	}
	return tableCells("throughput", rows, cols), render
}

// scenarios is the traffic-engine sweep: the internal/scenario grid
// (request multipliers 1x/10x/100x crossed with hit/resumption ratios)
// for the confidential KV store and the TLS-ish handshake, reported as
// requests per second at the simulated clock. Every cell's stream is a
// pure function of the spec (including -seed), every table value is a
// simulated quantity, and each workload family compiles once per variant
// — so even the 100x cells only add simulated execution time and the
// table is byte-identical across schedulings, dispatch modes and reruns.
func scenarios() ([]bench.Cell, renderFn) {
	cols := []confllvm.Variant{confllvm.VariantBase, confllvm.VariantCFI,
		confllvm.VariantMPX, confllvm.VariantSeg}
	specs := scenario.FigureGrid(shortGrid, scenarioSeed)
	tbl := bench.NewTable(
		fmt.Sprintf("Scenario sweep: seeded KV-store + TLS-ish traffic, requests/sec at a %.1f GHz simulated clock (%% of Base)",
			float64(bench.SimClockHz)/1e9), cols, "req/s")
	tbl.HigherIsBetter = true
	cells := bench.ScenarioCells("scenarios", specs, cols, &mcfg)
	render := func(results []bench.CellResult) error {
		err := renderTable("scenarios", tbl, results, func(r bench.CellResult) uint64 {
			return bench.ReqsPerSec(r.Cell.Scale, r.M.Wall)
		})
		if err != nil {
			return err
		}
		printGeomeans("geomean throughput overheads", tbl)
		return nil
	}
	return cells, render
}

// faults is the chaos figure: the KV-store and TLS-ish scenario
// workloads served through the bench supervisor while a seeded injector
// (internal/chaos) corrupts wire packets, plants code bombs, exhausts
// fuel, and presents tampered images to the verify-before-load gate. The
// sweep crosses the two workloads with a fault-rate ladder (per-mille,
// applied to every mechanism) and reports availability, successful
// throughput, restart counts, recovery latency and gate rejections —
// every column a simulated quantity, so the table is byte-identical
// across -parallel and -superblocks settings and joins the
// nightly dispatch-mode diffs. The injector seeds derive from -seed, so
// the figure is one deterministic function of the flag set.
func faults() ([]bench.Cell, renderFn) {
	const v = confllvm.VariantMPX // the deployable, verifiable configuration
	specs := []scenario.Spec{scenario.DefaultKV(shortGrid), scenario.DefaultTLSH(shortGrid)}
	rates := []uint64{0, 50, 200, 500}
	if shortGrid {
		rates = []uint64{0, 200, 500}
	}
	cells := bench.FaultCells("faults", specs, rates, v, &mcfg, scenarioSeed)
	render := func(results []bench.CellResult) error {
		fmt.Printf("Faults: supervised serving under seeded fault injection (%v, seed %d, rates in per-mille)\n", v, scenarioSeed)
		fmt.Printf("%-22s %7s %9s %11s %9s %12s %12s %7s %6s %6s\n",
			"workload/rate", "avail%", "req/s", "served", "restarts",
			"recov-mean", "recov-max", "gate✗", "shed", "rej")
		var avail []float64
		for _, r := range results {
			if r.Err != nil {
				return r.Err
			}
			rep := r.M.Serve
			fmt.Printf("%-22s %6.1f%% %9d %5d/%-5d %9d %12d %12d %7d %6d %6d\n",
				r.Cell.Row, rep.AvailabilityPct(), rep.ServedPerSec(),
				rep.Served, rep.Total, rep.Restarts,
				rep.RecoveryMean(), rep.RecoveryMax(),
				rep.VerifyRejections, rep.Shed, rep.Rejected)
			record("faults", r.Cell.Row, r.Cell.Variant.String(), r.M)
			avail = append(avail, rep.AvailabilityPct())
		}
		recordHistory("faults_avail_geomean", avail)
		fmt.Println()
		return nil
	}
	return cells, render
}

// verifyFigure is the load-gate evaluation: every workload's binary under
// both deployable schemes is verified serially and in parallel, then
// attacked with the seeded verifymut corpus. The first table is
// deterministic (counters are pure functions of the bits and -seed,
// identical under any -parallel/-superblocks setting); the following
// lines measure verifier throughput on the host, from the median of 5
// checks per cell in the load gate's parallel configuration, and are
// marked "(host)" so the nightly byte-diff can strip them. Any mutant the
// verifier fails to kill by contract fails the whole figure.
func verifyFigure() ([]bench.Cell, renderFn) {
	vs := []confllvm.Variant{confllvm.VariantMPX, confllvm.VariantSeg}
	cells := bench.VerifyCells("verify", bench.Workloads(shortGrid), vs, scenarioSeed)
	render := func(results []bench.CellResult) error {
		fmt.Printf("Verify: load-gate checking of every workload binary (seed %d)\n", scenarioSeed)
		fmt.Printf("%-16s %8s %7s %6s %8s %10s %9s\n",
			"workload", "variant", "funcs", "stubs", "insts", "code-bytes", "mutants")
		var surviving int
		for _, r := range results {
			if r.Err != nil {
				return r.Err
			}
			rep := r.M.Verify
			fmt.Printf("%-16s %8v %7d %6d %8d %10d %5d/%-3d\n",
				r.Cell.Row, r.Cell.Variant, rep.Funcs, rep.Stubs, rep.Insts,
				rep.CodeBytes, rep.MutantsKilled, rep.MutantsTried)
			surviving += rep.MutantsTried - rep.MutantsKilled
			record("verify", r.Cell.Row, r.Cell.Variant.String(), r.M)
		}
		fmt.Println()
		var funcsPerSec []float64
		for _, r := range results {
			rep := r.M.Verify
			funcsPerSec = append(funcsPerSec, rep.FuncsPerSec())
			fmt.Printf("%-16s %8v %10.0f funcs/s %12.0f insts/s  (host)\n",
				r.Cell.Row, r.Cell.Variant, rep.FuncsPerSec(), rep.InstsPerSec())
		}
		recordHistory("verify_funcs_per_sec", funcsPerSec)
		fmt.Println()
		if surviving > 0 {
			return fmt.Errorf("%d mutant(s) survived the verifier — kill rate below 100%%", surviving)
		}
		return nil
	}
	return cells, render
}

// cluster is the sharded-cluster figure: the confidential KV store's key
// space partitioned across {1, 4, 16} machines, swept over request
// multipliers (1x/10x/100x) and client key skews (uniform, zipf). The
// deterministic router in internal/scenario splits one seeded client
// stream into per-shard streams (cross-shard scans fan out into per-owner
// sub-requests) and predicts each shard's output vector; every shard then
// runs as an ordinary matrix cell on the shared verified artifact, and
// the render merges each cluster's shard measurements with commutative
// clock folds — aggregate req/s is client requests over the slowest
// shard, and the min/max columns show routing balance. Every printed
// value is a simulated quantity: the table is byte-identical across
// -parallel and -superblocks settings.
func cluster() ([]bench.Cell, renderFn) {
	const v = confllvm.VariantMPX // the deployable, verifiable configuration
	cts := bench.ClusterTraffics(scenario.ClusterGrid(shortGrid, scenarioSeed))
	cells := bench.ClusterCells("cluster", cts, v, &mcfg)
	render := func(results []bench.CellResult) error {
		fmt.Printf("Cluster: sharded confidential KV store, aggregate req/s at a %.1f GHz simulated clock (%v, seed %d)\n",
			float64(bench.SimClockHz)/1e9, v, scenarioSeed)
		fmt.Printf("%-18s %3s %6s %10s %13s %23s %7s %7s\n",
			"cluster", "sh", "reqs", "agg-req/s", "shard-reqs", "shard-cycles", "splits", "xscans")
		idx := 0
		var aggReqs []float64
		for _, ct := range cts {
			ms := make([]*bench.Measurement, ct.Spec.Shards)
			var hostNS int64
			for sh := range ms {
				r := results[idx]
				idx++
				if r.Err != nil {
					return r.Err
				}
				ms[sh] = r.M
				hostNS += r.M.HostNS
			}
			rep, err := bench.MergeShardClocks(ct, ms)
			if err != nil {
				return err
			}
			fmt.Printf("%-18s %3d %6d %10d %5d/%-7d %11d/%-11d %7d %7d\n",
				ct.Spec.Name, rep.Shards, rep.ClientRequests, rep.AggReqsPerSec(),
				rep.MinShardReqs, rep.MaxShardReqs,
				rep.MinShardCycles, rep.MaxShardCycles,
				rep.ScanSplits, rep.CrossScans)
			// One JSON row per cluster: wall = merged cluster clock, instrs
			// = cross-shard sum, host time = summed shard run times.
			m := &bench.Measurement{
				Variant: v,
				Wall:    rep.WallCycles,
				HostNS:  hostNS,
				Cluster: rep,
			}
			m.Stats.Instrs = rep.Instrs
			record("cluster", ct.Spec.Name, v.String(), m)
			aggReqs = append(aggReqs, float64(rep.AggReqsPerSec()))
		}
		recordHistory("cluster_reqs_per_sec", aggReqs)
		fmt.Println()
		return nil
	}
	return cells, render
}

// latencyFigure is the open-loop latency figure: the confidential KV
// store's per-request service times (measured at the trusted recv
// boundary in simulated cycles) replayed through a deterministic FIFO
// queue fed by seeded uniform/Poisson/bursty arrival processes at three
// offered loads. Every column is a simulated quantity — the table joins
// the nightly byte-diffs across -parallel and -superblocks —
// and the arrival streams derive from -seed, so the figure is one
// deterministic function of the flag set. The aggregate line merges
// every row's metric registry commutatively (internal/obs), the same
// discipline the cluster figure uses for shard clocks.
func latencyFigure() ([]bench.Cell, renderFn) {
	const v = confllvm.VariantMPX // the deployable, verifiable configuration
	sweeps := bench.LatencyGrid(shortGrid, scenarioSeed)
	cells := bench.LatencyCells("latency", sweeps, v, &mcfg)
	render := func(results []bench.CellResult) error {
		fmt.Printf("Latency: open-loop arrivals queueing at the trusted boundary (%v, seed %d, cycles at a %.1f GHz simulated clock)\n",
			v, scenarioSeed, float64(bench.SimClockHz)/1e9)
		fmt.Printf("%-28s %8s %10s %9s %9s %9s %9s %11s %5s\n",
			"scenario/arrival", "gap", "offer-r/s", "svc-mean", "p50", "p95", "p99", "max", "maxq")
		agg := obs.NewRegistry()
		var p99s []float64
		for _, r := range results {
			if r.Err != nil {
				return r.Err
			}
			rep := r.M.Latency
			fmt.Printf("%-28s %8d %10d %9d %9d %9d %9d %11d %5d\n",
				r.Cell.Row, rep.MeanGap, rep.OfferedRPS, rep.SvcMean,
				rep.P50, rep.P95, rep.P99, rep.Max, rep.MaxQueue)
			agg.Merge(rep.Registry)
			record("latency", r.Cell.Row, r.Cell.Variant.String(), r.M)
			p99s = append(p99s, float64(rep.P99))
		}
		recordHistory("latency_p99_cycles", p99s)
		lat := agg.Hist("latency")
		fmt.Printf("aggregate: %d requests, latency p50=%d p99=%d max=%d cycles, %d trusted calls\n\n",
			lat.Count, lat.Quantile(50), lat.Quantile(99), lat.Max,
			agg.CounterValue("trusted-calls"))
		return nil
	}
	return cells, render
}

// interp sweeps every workload with superblock dispatch on and off under
// OurMPX: simulated cycles must agree exactly (a runtime re-check of the
// determinism invariant) and the MIPS ratio is the dispatch speedup.
// These rows are the BENCH_interp.json trajectory datapoints, and their
// speedup geomean is the interp_geomean history column. The cells
// are Serial — MIPS is a host-time measurement — so they run one at a
// time after the parallel lane drains; only their compilation shares the
// pool.
func interp() ([]bench.Cell, renderFn) {
	const v = confllvm.VariantMPX
	stepConf := machine.DefaultConfig()
	stepConf.Superblocks = false
	blockConf := machine.DefaultConfig()
	blockConf.Superblocks = true
	wls := bench.Workloads(false)
	var cells []bench.Cell
	for _, wl := range wls {
		cells = append(cells,
			bench.Cell{Figure: "interp", Row: wl.Name, Label: "stepwise",
				Workload: wl, Variant: v, Conf: &stepConf, Serial: true},
			bench.Cell{Figure: "interp", Row: wl.Name, Label: "superblock",
				Workload: wl, Variant: v, Conf: &blockConf, Serial: true},
		)
	}
	render := func(results []bench.CellResult) error {
		fmt.Println("Interpreter dispatch: superblock vs per-instruction stepping (OurMPX)")
		fmt.Printf("%-16s %12s %12s %9s\n", "workload", "step MIPS", "block MIPS", "speedup")
		var speedups, blockMS []float64
		for i := 0; i+1 < len(results); i += 2 {
			ms, mb := results[i], results[i+1]
			if ms.Err != nil {
				return ms.Err
			}
			if mb.Err != nil {
				return mb.Err
			}
			name := ms.Cell.Row
			if ms.M.Wall != mb.M.Wall || ms.M.Stats.Arch() != mb.M.Stats.Arch() {
				return fmt.Errorf("%s: dispatch modes disagree (stepwise %d cycles, superblock %d cycles)",
					name, ms.M.Wall, mb.M.Wall)
			}
			record("interp", name, "stepwise", ms.M)
			record("interp", name, "superblock", mb.M)
			blockMS = append(blockMS, float64(mb.M.HostNS)/1e6)
			// A sub-clock-resolution run has HostNS == 0 and MIPS == 0;
			// dividing would poison the geomean with +Inf/NaN. Skip
			// untimed cells instead.
			if ms.M.MIPS() <= 0 || mb.M.MIPS() <= 0 {
				fmt.Printf("%-16s %12s %12s %9s\n", name, "-", "-", "untimed")
				continue
			}
			speedup := mb.M.MIPS() / ms.M.MIPS()
			fmt.Printf("%-16s %12.1f %12.1f %8.2fx\n", name, ms.M.MIPS(), mb.M.MIPS(), speedup)
			speedups = append(speedups, speedup)
		}
		if geo, ok := geomean(speedups); ok {
			fmt.Printf("%-16s %25s %8.2fx\n\n", "geomean", "", geo)
			recordHistory("interp_geomean", speedups)
		} else {
			fmt.Printf("%-16s %25s %9s\n\n", "geomean", "", "untimed")
		}
		recordHistory("interp_block_ms", blockMS)
		return nil
	}
	return cells, render
}
