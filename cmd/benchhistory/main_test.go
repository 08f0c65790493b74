package main

import (
	"path/filepath"
	"testing"
)

// TestHistoryLine pins the exact JSON row built from the fixture reports
// in testdata: column order, omitted columns, the zero-cell and
// other-figure skips, and float formatting.
func TestHistoryLine(t *testing.T) {
	td := func(name string) string { return filepath.Join("testdata", name) }
	all := map[string]string{
		"faults":  td("faults.json"),
		"verify":  td("verify.json"),
		"cluster": td("cluster.json"),
		"latency": td("latency.json"),
	}
	for _, tc := range []struct {
		name    string
		reports map[string]string
		want    string
	}{
		{"all", all, `{"commit":"abc123","date":"2026-10-17","benchrun_mips":171.3,"interp_geomean":2.7386127875258306,"faults_avail_geomean":90,"verify_funcs_per_sec":18974.06124160035,"cluster_reqs_per_sec":2846049.8941515405,"latency_p99_cycles":99914.99408682232}`},
		{"faults-only", map[string]string{"faults": td("faults.json")}, `{"commit":"abc123","date":"2026-10-17","benchrun_mips":171.3,"interp_geomean":2.7386127875258306,"faults_avail_geomean":90}`},
		{"required-only", nil, `{"commit":"abc123","date":"2026-10-17","benchrun_mips":171.3,"interp_geomean":2.7386127875258306}`},
	} {
		line, err := historyLine("abc123", "2026-10-17", td("benchrun.txt"), td("interp.json"), tc.reports)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if string(line) != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, line, tc.want)
		}
	}
}

// TestHistoryLineNoRows: a report without a single positive cell of its
// figure is an error, not a silent zero column.
func TestHistoryLineNoRows(t *testing.T) {
	_, err := historyLine("abc123", "2026-10-17", filepath.Join("testdata", "benchrun.txt"),
		filepath.Join("testdata", "interp.json"), map[string]string{"cluster": filepath.Join("testdata", "faults.json")})
	if err == nil {
		t.Fatal("a faults report passed as -cluster produced a row")
	}
}
