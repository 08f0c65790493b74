package scenario

import (
	"bytes"
	"encoding/binary"
	"testing"

	"confllvm/internal/rng"
)

// clusterTestSpec is a 4-shard parameterization with enough traffic for
// the balance and conservation properties to bite.
func clusterTestSpec() Spec {
	return Spec{
		Name:     "kv-cluster-test",
		Workload: WorkloadKV,
		Seed:     rng.Mix(DefaultSeed, 0xc1),
		Requests: 50, Multiplier: 2, Clients: 2,
		KeySpace: 256, Preload: 32, HitPct: 50,
		GetPct: 55, PutPct: 25, DelPct: 5,
		ValueMin: 8, ValueMax: 96, ScanSpan: 24,
		Shards: 4,
	}
}

// TestClusterDeterministic: routing is part of the model — the same spec
// yields byte-identical per-shard streams, expectations and routing
// metadata on every call.
func TestClusterDeterministic(t *testing.T) {
	specs := append(ClusterGrid(true, DefaultSeed), clusterTestSpec())
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			a, err := Cluster(spec)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Cluster(spec)
			if err != nil {
				t.Fatal(err)
			}
			if a.ClientRequests != b.ClientRequests || a.ScanSplits != b.ScanSplits ||
				a.CrossScans != b.CrossScans {
				t.Fatalf("routing metadata differs across calls: %+v vs %+v", a, b)
			}
			for sh := range a.Wire {
				if len(a.Wire[sh]) != len(b.Wire[sh]) {
					t.Fatalf("shard %d: packet count differs across calls", sh)
				}
				for i := range a.Wire[sh] {
					if !bytes.Equal(a.Wire[sh][i], b.Wire[sh][i]) {
						t.Fatalf("shard %d: packet %d differs across calls", sh, i)
					}
				}
				for i := range a.Expect[sh] {
					if a.Expect[sh][i] != b.Expect[sh][i] {
						t.Fatalf("shard %d: expect differs across calls: %v vs %v",
							sh, a.Expect[sh], b.Expect[sh])
					}
				}
			}
		})
	}
}

// TestClusterConservation: per-shard counters must decompose the global
// (single-machine) prediction exactly — requests and processed inflate by
// precisely the scan fan-out, every other counter sums back unchanged.
// Routing that lost, duplicated or misattributed a single op would break
// one of these sums.
func TestClusterConservation(t *testing.T) {
	for _, spec := range append(ClusterGrid(false, DefaultSeed), clusterTestSpec()) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			ct, err := Cluster(spec)
			if err != nil {
				t.Fatal(err)
			}
			var reqs int
			for _, n := range ct.Requests {
				reqs += n
			}
			if want := ct.ClientRequests + ct.ScanSplits; reqs != want {
				t.Fatalf("shard requests sum to %d, want client %d + splits %d",
					reqs, ct.ClientRequests, ct.ScanSplits)
			}
			sums := make([]int64, len(ct.GlobalExpect))
			for _, e := range ct.Expect {
				for i, v := range e {
					sums[i] += v
				}
			}
			// Index 0 is processed (inflated by splits); 1..5 are
			// hits/misses/puts/delhits/scanhits and must sum exactly.
			if want := ct.GlobalExpect[0] + int64(ct.ScanSplits); sums[0] != want {
				t.Fatalf("processed sums to %d, want global %d + splits %d",
					sums[0], ct.GlobalExpect[0], ct.ScanSplits)
			}
			for i := 1; i < len(sums); i++ {
				if sums[i] != ct.GlobalExpect[i] {
					t.Fatalf("counter %d: shard sum %v does not decompose global %v",
						i, sums, ct.GlobalExpect)
				}
			}
		})
	}
}

// TestClusterPartitionCorrectness: every packet on a shard's stream must
// concern only keys that shard owns — non-scan ops by their key, scan
// sub-requests over their whole range.
func TestClusterPartitionCorrectness(t *testing.T) {
	spec := clusterTestSpec()
	ct, err := Cluster(spec)
	if err != nil {
		t.Fatal(err)
	}
	for sh, wire := range ct.Wire {
		for i, pkt := range wire {
			op := binary.LittleEndian.Uint64(pkt[0:])
			key := binary.LittleEndian.Uint64(pkt[8:])
			if op == OpScan {
				span := binary.LittleEndian.Uint64(pkt[16:])
				for k := key; k < key+span; k++ {
					if got := spec.ShardOf(k); got != sh {
						t.Fatalf("shard %d packet %d: scan key %d belongs to shard %d", sh, i, k, got)
					}
				}
				continue
			}
			if got := spec.ShardOf(key); got != sh {
				t.Fatalf("shard %d packet %d: key %d belongs to shard %d", sh, i, key, got)
			}
		}
	}
}

// TestClusterSingleShardIsTraffic: a 1-shard cluster is the single
// machine — shard 0's stream must be byte-identical to Traffic and its
// expectation the global one. This pins that routing is pure
// post-processing of the unchanged stream.
func TestClusterSingleShardIsTraffic(t *testing.T) {
	spec := clusterTestSpec()
	spec.Shards = 1
	ct, err := Cluster(spec)
	if err != nil {
		t.Fatal(err)
	}
	wire, expect, err := Traffic(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(ct.Wire[0]) != len(wire) {
		t.Fatalf("1-shard cluster has %d packets, Traffic has %d", len(ct.Wire[0]), len(wire))
	}
	for i := range wire {
		if !bytes.Equal(ct.Wire[0][i], wire[i]) {
			t.Fatalf("1-shard cluster packet %d differs from Traffic", i)
		}
	}
	for i := range expect {
		if ct.Expect[0][i] != expect[i] || ct.GlobalExpect[i] != expect[i] {
			t.Fatalf("1-shard expectations %v / global %v differ from Traffic's %v",
				ct.Expect[0], ct.GlobalExpect, expect)
		}
	}
	if ct.ScanSplits != 0 || ct.CrossScans != 0 {
		t.Fatalf("1-shard cluster reports scan fan-out: %d splits, %d cross", ct.ScanSplits, ct.CrossScans)
	}
}

// TestClusterCrossShardScans: with a scan span wider than a shard's
// contiguous block, scans must fan out — and each split must add exactly
// its piece count minus one.
func TestClusterCrossShardScans(t *testing.T) {
	spec := clusterTestSpec()
	spec.Shards = 16 // block width 16 < ScanSpan 24: every in-range scan crosses
	ct, err := Cluster(spec)
	if err != nil {
		t.Fatal(err)
	}
	if ct.CrossScans == 0 {
		t.Fatal("no cross-shard scans despite span exceeding the shard block width")
	}
	if ct.ScanSplits < ct.CrossScans {
		t.Fatalf("%d splits < %d cross-shard scans (each adds at least one)",
			ct.ScanSplits, ct.CrossScans)
	}
}

// TestClusterSkewImbalance: zipf-skewed clients must load shards less
// evenly than uniform ones — the property the figure's balance columns
// exist to show. Both streams are deterministic, so this is a fixed
// comparison, not a statistical one.
func TestClusterSkewImbalance(t *testing.T) {
	spread := func(skew string) int {
		spec := clusterTestSpec()
		spec.Multiplier = 4
		spec.Skew = skew
		ct, err := Cluster(spec)
		if err != nil {
			t.Fatal(err)
		}
		min, max := ct.Requests[0], ct.Requests[0]
		for _, n := range ct.Requests {
			if n < min {
				min = n
			}
			if n > max {
				max = n
			}
		}
		return max - min
	}
	uni, zip := spread(SkewUniform), spread(SkewZipf)
	if zip <= uni {
		t.Fatalf("zipf spread %d not wider than uniform spread %d", zip, uni)
	}
}

// TestClusterSeedSensitivity: distinct seeds must route distinct streams.
func TestClusterSeedSensitivity(t *testing.T) {
	a := clusterTestSpec()
	b := a
	b.Seed = a.Seed + 1
	ca, err := Cluster(a)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := Cluster(b)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for sh := range ca.Wire {
		if len(ca.Wire[sh]) != len(cb.Wire[sh]) {
			same = false
			break
		}
		for i := range ca.Wire[sh] {
			if !bytes.Equal(ca.Wire[sh][i], cb.Wire[sh][i]) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("clusters for distinct seeds are byte-identical")
	}
}

// TestClusterRejects: only the keyed KV family shards, and skew names are
// validated before any stream is generated.
func TestClusterRejects(t *testing.T) {
	if _, err := Cluster(DefaultTLSH(true)); err == nil {
		t.Fatal("sharding the TLS-ish family must error")
	}
	bad := clusterTestSpec()
	bad.Skew = "pareto"
	if _, err := Cluster(bad); err == nil {
		t.Fatal("unknown skew must error")
	}
	if _, _, err := Traffic(bad); err == nil {
		t.Fatal("Traffic must reject unknown skew too")
	}
}

// TestSkewShapesStream: skew must change the key stream (same seed) and
// hot skew must concentrate put traffic on the hot set.
func TestSkewShapesStream(t *testing.T) {
	base := clusterTestSpec()
	base.Shards = 1
	wu, _, err := Traffic(base)
	if err != nil {
		t.Fatal(err)
	}
	zs := base
	zs.Skew = SkewZipf
	wz, _, err := Traffic(zs)
	if err != nil {
		t.Fatal(err)
	}
	same := len(wu) == len(wz)
	if same {
		for i := range wu {
			if !bytes.Equal(wu[i], wz[i]) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("zipf skew left the stream byte-identical to uniform")
	}

	hs := base
	hs.Skew = SkewHot
	wh, _, err := Traffic(hs)
	if err != nil {
		t.Fatal(err)
	}
	var hot, total int
	for _, pkt := range wh[hs.Preload:] { // measured mix only; preload stays uniform
		if binary.LittleEndian.Uint64(pkt[0:]) != OpPut {
			continue
		}
		total++
		if binary.LittleEndian.Uint64(pkt[8:]) < hotSetSize {
			hot++
		}
	}
	if total == 0 {
		t.Fatal("mix produced no puts")
	}
	if hot*100 < total*60 {
		t.Fatalf("hot skew put only %d/%d puts on the hot set", hot, total)
	}
}
