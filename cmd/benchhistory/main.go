// benchhistory appends one perf-trajectory row to BENCH_history.jsonl.
//
// Usage:
//
//	benchhistory [-bench benchrun.txt] [-interp BENCH_interp.json]
//	             [-faults BENCH_faults.json] [-verify BENCH_verify.json]
//	             [-cluster BENCH_cluster.json] [-latency BENCH_latency.json]
//	             [-out BENCH_history.jsonl] [-commit SHA]
//
// It reads artifacts the nightly CI job already produces — the
// `go test -bench BenchmarkRun` output, the `confbench -figure interp
// -json` report and, optionally, one `confbench -figure F -json` report
// per figure column — and distills them into a single JSON line:
//
//	{"commit": ..., "date": ..., "benchrun_mips": ...., "interp_geomean": ...,
//	 "faults_avail_geomean": ..., ...}
//
// benchrun_mips is the BenchmarkRun/superblock MIPS datapoint (raw
// dispatch throughput on straight-line ALU blocks under the default
// dispatch, chained superblocks — the other BenchmarkRun lanes
// deliberately do not start with "superblock" so the prefix match below
// stays unambiguous); interp_geomean is the geometric mean, over all
// workloads in the interp sweep, of the superblock-vs-stepwise MIPS
// speedup (untimed cells are skipped, as in the confbench table).
//
// The optional columns come from figureColumns, one line each: the
// geometric mean of one JSON field over one figure's rows, skipping
// zero cells like every other geomean in the repo, and present only
// when its flag is given. faults_avail_geomean is the faults figure's
// availability percentage; verify_funcs_per_sec the verify figure's
// per-binary checking throughput (host time, tracking the load gate's
// cost); cluster_reqs_per_sec the cluster figure's aggregate simulated
// req/s; latency_p99_cycles the latency figure's p99 request latency in
// simulated cycles. The last two are fully deterministic, so any drift
// is a real behavior change, not host noise. -commit defaults to
// $GITHUB_SHA, then "local".
// Appending (not rewriting) keeps the file a grep-able trajectory; rows
// carry the commit so gaps and reruns are self-describing.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"
)

// interpReport mirrors the subset of the confbench -json schema the
// history row needs.
type interpReport struct {
	GeneratedAt string `json:"generated_at"`
	Rows        []struct {
		Figure   string  `json:"figure"`
		Workload string  `json:"workload"`
		Variant  string  `json:"variant"`
		MIPS     float64 `json:"mips"`
	} `json:"rows"`
}

// figureColumn is one optional history column: the geometric mean of
// Field over the rows of Figure in the confbench -json report named by
// the -Flag flag, written under Column.
type figureColumn struct {
	Flag, Figure, Field, Column string
}

// figureColumns lists the optional columns in output order.
var figureColumns = []figureColumn{
	{"faults", "faults", "avail_pct", "faults_avail_geomean"},
	{"verify", "verify", "verify_funcs_per_sec", "verify_funcs_per_sec"},
	{"cluster", "cluster", "agg_reqs_per_sec", "cluster_reqs_per_sec"},
	{"latency", "latency", "latency_p99_cycles", "latency_p99_cycles"},
}

// benchRunMIPS extracts the MIPS metric of the BenchmarkRun/superblock
// line from `go test -bench` output: the value immediately preceding the
// "MIPS" unit token.
func benchRunMIPS(path string) (float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(strings.TrimSpace(line), "BenchmarkRun/superblock") {
			continue
		}
		fields := strings.Fields(line)
		for i := 1; i < len(fields); i++ {
			if fields[i] == "MIPS" {
				return strconv.ParseFloat(fields[i-1], 64)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no BenchmarkRun/superblock MIPS line in %s", path)
}

// interpGeomean pairs each interp workload's stepwise and superblock
// rows and returns the geometric mean of the MIPS speedups, skipping
// untimed cells (MIPS <= 0) exactly like the confbench table does.
func interpGeomean(path string) (float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var rep interpReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return 0, fmt.Errorf("parse %s: %w", path, err)
	}
	step := map[string]float64{}
	block := map[string]float64{}
	for _, r := range rep.Rows {
		if r.Figure != "interp" {
			continue
		}
		switch r.Variant {
		case "stepwise":
			step[r.Workload] = r.MIPS
		case "superblock":
			block[r.Workload] = r.MIPS
		}
	}
	var logSum float64
	var n int
	for wl, s := range step {
		b, ok := block[wl]
		if !ok || s <= 0 || b <= 0 {
			continue
		}
		logSum += math.Log(b / s)
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("no timed interp workload pairs in %s", path)
	}
	return math.Exp(logSum / float64(n)), nil
}

// figureGeomean returns the geometric mean of col.Field over the rows
// of col.Figure in the report at path, skipping rows where the field is
// missing or not positive (a dead cell must never fold -Inf into the
// aggregate).
func figureGeomean(path string, col figureColumn) (float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var rep struct {
		Rows []map[string]any `json:"rows"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return 0, fmt.Errorf("parse %s: %w", path, err)
	}
	var logSum float64
	var n int
	for _, r := range rep.Rows {
		v, _ := r[col.Field].(float64)
		if r["figure"] != col.Figure || v <= 0 {
			continue
		}
		logSum += math.Log(v)
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("no %s rows with a positive %s in %s", col.Figure, col.Field, path)
	}
	return math.Exp(logSum / float64(n)), nil
}

// historyLine builds the JSON row. reports maps a figureColumn's Flag to
// its report path; columns without a report are omitted.
func historyLine(sha, date, benchPath, interpPath string, reports map[string]string) ([]byte, error) {
	mips, err := benchRunMIPS(benchPath)
	if err != nil {
		return nil, err
	}
	geo, err := interpGeomean(interpPath)
	if err != nil {
		return nil, err
	}
	type kv struct {
		key string
		val any
	}
	fields := []kv{{"commit", sha}, {"date", date}, {"benchrun_mips", mips}, {"interp_geomean", geo}}
	for _, col := range figureColumns {
		path := reports[col.Flag]
		if path == "" {
			continue
		}
		v, err := figureGeomean(path, col)
		if err != nil {
			return nil, err
		}
		fields = append(fields, kv{col.Column, v})
	}
	line := []byte{'{'}
	for i, f := range fields {
		if i > 0 {
			line = append(line, ',')
		}
		k, _ := json.Marshal(f.key)
		v, err := json.Marshal(f.val)
		if err != nil {
			return nil, fmt.Errorf("marshal %s: %w", f.key, err)
		}
		line = append(append(append(line, k...), ':'), v...)
	}
	return append(line, '}'), nil
}

func main() {
	bench := flag.String("bench", "benchrun.txt", "go test -bench BenchmarkRun output")
	interp := flag.String("interp", "BENCH_interp.nightly.json", "confbench -figure interp -json report")
	reportFlags := map[string]*string{}
	for _, col := range figureColumns {
		reportFlags[col.Flag] = flag.String(col.Flag, "",
			"confbench -figure "+col.Figure+" -json report (optional)")
	}
	out := flag.String("out", "BENCH_history.jsonl", "history file to append to")
	commit := flag.String("commit", "", "commit SHA for the row (default: $GITHUB_SHA, then \"local\")")
	flag.Parse()

	sha := *commit
	if sha == "" {
		sha = os.Getenv("GITHUB_SHA")
	}
	if sha == "" {
		sha = "local"
	}
	reports := map[string]string{}
	for name, p := range reportFlags {
		reports[name] = *p
	}

	line, err := historyLine(sha, time.Now().UTC().Format("2006-01-02"), *bench, *interp, reports)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchhistory: %v\n", err)
		os.Exit(1)
	}
	f, err := os.OpenFile(*out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchhistory: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	if _, err := f.Write(append(line, '\n')); err != nil {
		fmt.Fprintf(os.Stderr, "benchhistory: append: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("appended to %s: %s\n", *out, line)
}
