// benchhistory appends one perf-trajectory row to BENCH_history.jsonl.
//
// Usage:
//
//	benchhistory [-bench benchrun.txt] [-report BENCH_nightly.json]
//	             [-out BENCH_history.jsonl] [-commit SHA]
//
// It reads two artifacts the nightly CI job already produces — the
// `go test -bench BenchmarkRun` output and one `confbench -figure all
// -json` report — and distills them into a single JSON line:
//
//	{"commit": ..., "date": ..., "benchrun_mips": ..., "cluster_reqs_per_sec": ...,
//	 "faults_avail_geomean": ..., "interp_geomean": ..., ...}
//
// benchrun_mips is the BenchmarkRun/superblock MIPS datapoint (raw
// dispatch throughput on straight-line ALU blocks under the default
// dispatch, chained superblocks — the other BenchmarkRun lanes
// deliberately do not start with "superblock" so the prefix match below
// stays unambiguous). Every other column is copied, in key order, from
// the report's "history" object: each confbench figure that owns a
// trajectory metric computes it as it renders (the confbench package doc
// lists them), so this tool knows nothing of the row schema. A report
// without a history object is an error, not a row without columns.
// -commit defaults to $GITHUB_SHA, then "local".
// Appending (not rewriting) keeps the file a grep-able trajectory; rows
// carry the commit so gaps and reruns are self-describing.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

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

// reportHistory returns the history object of the confbench -json report
// at path, erroring when it is missing or empty.
func reportHistory(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep struct {
		History map[string]float64 `json:"history"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(rep.History) == 0 {
		return nil, fmt.Errorf("no history object in %s (was it written by confbench -figure all -json?)", path)
	}
	return rep.History, nil
}

// historyLine builds the JSON row: commit, date and benchrun_mips, then
// the report's history columns in key order.
func historyLine(sha, date, benchPath, reportPath string) ([]byte, error) {
	mips, err := benchRunMIPS(benchPath)
	if err != nil {
		return nil, err
	}
	hist, err := reportHistory(reportPath)
	if err != nil {
		return nil, err
	}
	head, err := json.Marshal(struct {
		Commit string  `json:"commit"`
		Date   string  `json:"date"`
		MIPS   float64 `json:"benchrun_mips"`
	}{sha, date, mips})
	if err != nil {
		return nil, err
	}
	cols, err := json.Marshal(hist) // encoding/json sorts map keys
	if err != nil {
		return nil, err
	}
	// Join the two objects: drop head's closing '}' and cols' opening '{'.
	return append(append(head[:len(head)-1], ','), cols[1:]...), nil
}

func main() {
	bench := flag.String("bench", "benchrun.txt", "go test -bench BenchmarkRun output")
	report := flag.String("report", "BENCH_nightly.json", "confbench -figure all -json report")
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

	line, err := historyLine(sha, time.Now().UTC().Format("2006-01-02"), *bench, *report)
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
