package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestHistoryLine pins the exact JSON row built from the fixture report
// in testdata: commit, date and benchrun_mips first, then the history
// columns in key order (the fixture lists them unsorted), with the
// report's rows ignored and float formatting unchanged.
func TestHistoryLine(t *testing.T) {
	line, err := historyLine("abc123", "2026-10-17", filepath.Join("testdata", "benchrun.txt"),
		filepath.Join("testdata", "report.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := `{"commit":"abc123","date":"2026-10-17","benchrun_mips":171.3,"cluster_reqs_per_sec":2214515.188809093,"faults_avail_geomean":90,"interp_geomean":2.7386127875258306,"latency_p99_cycles":11750.956311632137,"verify_funcs_per_sec":18974.06124160035}`
	if string(line) != want {
		t.Errorf("\n got %s\nwant %s", line, want)
	}
}

// TestHistoryLineNoRows: a report without a history object, or with an
// empty one, produces no row — an error, not a row without columns.
func TestHistoryLineNoRows(t *testing.T) {
	for name, body := range map[string]string{
		"missing": `{"figure_filter": "5", "rows": [{"figure": "fig5", "workload": "mcf"}]}`,
		"empty":   `{"history": {}, "rows": []}`,
	} {
		path := filepath.Join(t.TempDir(), "report.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if line, err := historyLine("abc123", "2026-10-17", filepath.Join("testdata", "benchrun.txt"), path); err == nil {
			t.Errorf("%s history produced a row: %s", name, line)
		}
	}
}
