package bench

import (
	"reflect"
	"testing"

	"confllvm"
	"confllvm/internal/scenario"
)

// clusterBenchSpec is a 4-shard scenario small enough for unit tests yet
// wide enough to exercise routing, scan fan-out and the clock merge.
func clusterBenchSpec(seed uint64) scenario.Spec {
	return scenario.Spec{
		Name:     "kv-cluster-bench",
		Workload: scenario.WorkloadKV,
		Seed:     seed,
		Requests: 10, Multiplier: 1, Clients: 2,
		KeySpace: 256, Preload: 16, HitPct: 50,
		GetPct: 55, PutPct: 25, DelPct: 5,
		ValueMin: 8, ValueMax: 64, ScanSpan: 24,
		Shards: 4,
	}
}

// runClusterCells executes one routed cluster through the matrix and
// returns its per-shard measurements (fatal on any cell error — each
// shard's Check compares outputs against the router's prediction, so a
// pass here is end-to-end validation of the per-shard expect vectors).
func runClusterCells(t *testing.T, ct *scenario.ClusterTraffic, workers int) []*Measurement {
	t.Helper()
	cells := ClusterCells("cluster", []*scenario.ClusterTraffic{ct}, confllvm.VariantMPX, nil)
	results := RunMatrix(cells, workers)
	ms := make([]*Measurement, len(results))
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("cell %d (%s/%s): %v", i, r.Cell.Row, r.Cell.Label, r.Err)
		}
		ms[i] = r.M
	}
	return ms
}

// TestClusterMatrixDeterminism: the cluster grid's shard cells and the
// merged per-cluster reports are simulated quantities — cell-for-cell
// identical between a serial and an 8-worker matrix. The CI smoke runs
// this under -race.
func TestClusterMatrixDeterminism(t *testing.T) {
	cts := ClusterTraffics(scenario.ClusterGrid(true, scenario.DefaultSeed))
	cells := ClusterCells("cluster", cts, confllvm.VariantMPX, nil)
	serial := RunMatrix(cells, 1)
	parallel := RunMatrix(ClusterCells("cluster", cts, confllvm.VariantMPX, nil), 8)
	if len(serial) != len(parallel) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Err != nil || p.Err != nil {
			t.Fatalf("cell %d (%s/%s): serial err %v, parallel err %v",
				i, s.Cell.Row, s.Cell.Label, s.Err, p.Err)
		}
		if s.M.Wall != p.M.Wall || s.M.Stats != p.M.Stats ||
			!reflect.DeepEqual(s.M.Outputs, p.M.Outputs) {
			t.Fatalf("cell %d (%s/%s) diverged between worker counts:\n  serial   %d cycles %+v\n  parallel %d cycles %+v",
				i, s.Cell.Row, s.Cell.Label, s.M.Wall, s.M.Stats, p.M.Wall, p.M.Stats)
		}
	}
	// The merged rows must agree too — this is what the figure prints.
	idx := 0
	for _, ct := range cts {
		n := ct.Spec.Shards
		ms, mp := make([]*Measurement, n), make([]*Measurement, n)
		for sh := 0; sh < n; sh++ {
			ms[sh], mp[sh] = serial[idx].M, parallel[idx].M
			idx++
		}
		rs, err := MergeShardClocks(ct, ms)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := MergeShardClocks(ct, mp)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rs, rp) {
			t.Fatalf("%s: merged reports diverged:\n  serial   %+v\n  parallel %+v", ct.Spec.Name, rs, rp)
		}
	}
}

// TestClusterMergeOrderInvariance: the merge uses only commutative,
// associative folds, so feeding shard measurements in any order yields
// the identical report — the invariant that makes the figure independent
// of shard completion order.
func TestClusterMergeOrderInvariance(t *testing.T) {
	ct, err := scenario.Cluster(clusterBenchSpec(101))
	if err != nil {
		t.Fatal(err)
	}
	ms := runClusterCells(t, ct, 4)
	ref, err := MergeShardClocks(ct, ms)
	if err != nil {
		t.Fatal(err)
	}
	perms := [][]int{{3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1}}
	for _, p := range perms {
		shuffled := make([]*Measurement, len(ms))
		for i, j := range p {
			shuffled[i] = ms[j]
		}
		got, err := MergeShardClocks(ct, shuffled)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("merge order %v changed the report:\n  ref %+v\n  got %+v", p, ref, got)
		}
	}
	if ref.WallCycles != ref.MaxShardCycles {
		t.Fatalf("cluster wall %d is not the slowest shard %d", ref.WallCycles, ref.MaxShardCycles)
	}
	if ref.AggReqsPerSec() != ReqsPerSec(uint64(ref.ClientRequests), ref.WallCycles) {
		t.Fatal("aggregate req/s is not client requests over the merged clock")
	}
}

// TestClusterMergeSeedSensitivity: a different traffic seed must change
// the merged report — the figure's rows are functions of -seed, not
// constants.
func TestClusterMergeSeedSensitivity(t *testing.T) {
	reports := make([]*ClusterReport, 2)
	for i, seed := range []uint64{201, 202} {
		ct, err := scenario.Cluster(clusterBenchSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := MergeShardClocks(ct, runClusterCells(t, ct, 4))
		if err != nil {
			t.Fatal(err)
		}
		reports[i] = rep
	}
	if reflect.DeepEqual(reports[0], reports[1]) {
		t.Fatalf("distinct seeds produced identical merged reports: %+v", reports[0])
	}
}

// TestMergeShardClocksArityCheck: the merge refuses measurement slices
// that do not match the cluster width or contain holes.
func TestMergeShardClocksArityCheck(t *testing.T) {
	ct, err := scenario.Cluster(clusterBenchSpec(303))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeShardClocks(ct, make([]*Measurement, 2)); err == nil {
		t.Fatal("short measurement slice must error")
	}
	if _, err := MergeShardClocks(ct, make([]*Measurement, ct.Spec.Shards)); err == nil {
		t.Fatal("nil measurements must error")
	}
}
