package bench

import (
	"fmt"

	"confllvm"
	"confllvm/internal/machine"
	"confllvm/internal/scenario"
)

// This file is the cluster layer: N machine.Machine instances serving one
// scenario's key space behind a deterministic router (internal/scenario's
// Cluster). Each shard is an ordinary matrix cell: a wireWorkload that
// serves the shard's routed packets with the KV store program and checks
// the router's per-shard output prediction. All shards share one
// singleflight artifact per variant (so every shard binary passes the
// verify-before-load gate exactly once), each runs on its own machine,
// and RunMatrix schedules shards across its worker pool like any other
// cells. What makes the result a *cluster* measurement is the merge:
// shards run concurrently in the simulated world, so the cluster's wall
// clock is the slowest shard's simulated cycles, and aggregate req/s is
// client requests over that maximum. The merge uses only commutative,
// associative folds (sum/min/max), so it is invariant under shard
// completion order — the property that keeps cluster figure rows
// byte-identical across -parallel settings.

// ClusterReport is the deterministic merge of one cluster's per-shard
// measurements. Every field is a simulated quantity.
type ClusterReport struct {
	Shards int
	// ClientRequests is the client-visible request count — the req/s
	// numerator. RoutedRequests counts shard requests after scan fan-out.
	ClientRequests int
	RoutedRequests int
	// WallCycles is the cluster clock: the slowest shard's simulated
	// cycles (shards serve concurrently in simulated time).
	WallCycles uint64
	// SumCycles is the aggregate compute across shards (the cost view).
	SumCycles uint64
	// Min/MaxShardCycles and Min/MaxShardReqs are the balance columns:
	// how evenly routing spread simulated work and requests.
	MinShardCycles, MaxShardCycles uint64
	MinShardReqs, MaxShardReqs     int
	// ScanSplits counts extra shard sub-requests created by cross-shard
	// scans; CrossScans counts scans that touched more than one shard.
	ScanSplits, CrossScans int
	// Instrs sums simulated instructions across shards.
	Instrs uint64
}

// AggReqsPerSec is the cluster's aggregate throughput: client requests
// served per second at SimClockHz on the merged clock.
func (r *ClusterReport) AggReqsPerSec() uint64 {
	return ReqsPerSec(uint64(r.ClientRequests), r.WallCycles)
}

// MergeShardClocks folds per-shard measurements into the cluster
// aggregate. ms must hold one measurement per shard of ct, but in *any*
// order: every fold is commutative and associative (sum, min, max), so
// the merged report is independent of shard completion or iteration
// order (pinned by TestClusterMergeOrderInvariance). Request-count
// balance comes from the routing metadata, which is fixed before any
// shard runs.
func MergeShardClocks(ct *scenario.ClusterTraffic, ms []*Measurement) (*ClusterReport, error) {
	if len(ms) != ct.Spec.Shards {
		return nil, fmt.Errorf("cluster %s: %d shard measurements for %d shards",
			ct.Spec.Name, len(ms), ct.Spec.Shards)
	}
	rep := &ClusterReport{
		Shards:         ct.Spec.Shards,
		ClientRequests: ct.ClientRequests,
		ScanSplits:     ct.ScanSplits,
		CrossScans:     ct.CrossScans,
	}
	for i, m := range ms {
		if m == nil {
			return nil, fmt.Errorf("cluster %s: missing measurement at position %d", ct.Spec.Name, i)
		}
		if i == 0 {
			rep.MinShardCycles = m.Wall
		}
		if m.Wall > rep.MaxShardCycles {
			rep.MaxShardCycles = m.Wall
		}
		if m.Wall < rep.MinShardCycles {
			rep.MinShardCycles = m.Wall
		}
		rep.SumCycles += m.Wall
		rep.Instrs += m.Stats.Instrs
	}
	for i, n := range ct.Requests {
		if i == 0 {
			rep.MinShardReqs = n
		}
		if n > rep.MaxShardReqs {
			rep.MaxShardReqs = n
		}
		if n < rep.MinShardReqs {
			rep.MinShardReqs = n
		}
		rep.RoutedRequests += n
	}
	rep.WallCycles = rep.MaxShardCycles
	return rep, nil
}

// ClusterTraffics routes every spec of a cluster grid (panicking on a
// non-clusterable spec — grids are built from the KV family only).
func ClusterTraffics(specs []scenario.Spec) []*scenario.ClusterTraffic {
	cts := make([]*scenario.ClusterTraffic, len(specs))
	for i, spec := range specs {
		ct, err := scenario.Cluster(spec)
		if err != nil {
			panic(err)
		}
		cts[i] = ct
	}
	return cts
}

// ClusterCells expands routed cluster traffic into matrix cells: one
// cell per shard, in shard order, so a figure render can slice the
// results back into clusters (Spec.Shards cells per traffic) and merge
// them with MergeShardClocks. Shard cells are simulated quantities (no
// Serial pinning) and all share one artifact per variant through the
// singleflight cache.
func ClusterCells(figure string, cts []*scenario.ClusterTraffic,
	v confllvm.Variant, conf *machine.Config) []Cell {
	var cells []Cell
	for _, ct := range cts {
		for sh := 0; sh < ct.Spec.Shards; sh++ {
			label := fmt.Sprintf("s%02d", sh)
			wire, expect := ct.Wire[sh], ct.Expect[sh]
			traffic := func() ([][]byte, []int64) { return wire, expect }
			cells = append(cells, Cell{
				Figure:   figure,
				Row:      ct.Spec.Name,
				Label:    label,
				Workload: wireWorkload("kv", ct.Spec.Name+"/"+label, kvSources, traffic),
				Variant:  v,
				Conf:     conf,
				Scale:    uint64(len(wire)),
			})
		}
	}
	return cells
}
