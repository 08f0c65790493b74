// Command perfbench is the repository benchmark. One run takes a workload
// name and a seed, sets up (generates traffic, compiles the served
// artifacts), measures for a fixed number of seconds, checks every output
// against its reference and prints a detail line (host facts, sample
// counts, the ungated compile_ms_tail and fail_frac) and then one JSON
// result line. From the repository root:
//
//	bash perfbench/run.sh --workload kv-serve --seed 1 --seconds 25 --trace 0
//
// design.json records the workloads, metric definitions, the kv-serve
// queue settings and which end-to-end metric each layer should move.
//
// Every run executes all three phases — compiling the bench programs,
// running the SPEC-like kernels and serving a KV stream — because every
// end-to-end metric is reported for every workload; the workload decides
// which phase gets most of the measured time. With --trace 1 the run
// alternates untraced and traced units, records spans around each call
// into a layer and reports the per-layer metrics instead.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// workloadShares gives each workload's share of the measured time for the
// compile, spec-run and kv-serve phases.
var workloadShares = map[string][3]float64{
	"compile":  {0.5, 0.25, 0.25},
	"spec-run": {0.25, 0.5, 0.25},
	"kv-serve": {0.25, 0.25, 0.5},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "compile, spec-run or kv-serve")
	seed := flag.Uint64("seed", 1, "seed of the traffic, arrival streams and link layout")
	seconds := flag.Float64("seconds", 10, "measured time of the run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	if _, ok := workloadShares[*workload]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload compile|spec-run|kv-serve --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1}
	r, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, e := range r.errs {
		fmt.Fprintln(os.Stderr, "check failed:", e)
	}
	if cfg.trace {
		path := filepath.Join(".bench_build", "traces",
			fmt.Sprintf("trace-%s-seed%d.jsonl.gz", cfg.workload, cfg.seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		if err := r.tr.Write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
			os.Exit(1)
		}
		r.detail["trace_file"] = path
		r.detail["spans"] = r.tr.Len()
	}
	r.detail["host"] = hostFacts()
	out := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(out)
	if err := enc.Encode(map[string]any{"detail": r.detail}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := enc.Encode(result{Correct: r.failed == 0, Attempted: r.attempted,
		Failed: r.failed, Metrics: r.metrics}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := out.Flush(); err != nil {
		os.Exit(1)
	}
}

// hostFacts are stored with every result.
func hostFacts() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
