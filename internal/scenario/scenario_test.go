package scenario

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
)

// TestTrafficDeterministic is the engine's core invariant: the same Spec
// (same seed) yields byte-identical wire packets and identical expected
// outputs on every call.
func TestTrafficDeterministic(t *testing.T) {
	for _, spec := range append(FigureGrid(true, DefaultSeed),
		DefaultKV(false), DefaultKV(true), DefaultTLSH(false), DefaultTLSH(true)) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			w1, e1, err := Traffic(spec)
			if err != nil {
				t.Fatal(err)
			}
			w2, e2, err := Traffic(spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(w1) != len(w2) {
				t.Fatalf("packet count differs across calls: %d vs %d", len(w1), len(w2))
			}
			for i := range w1 {
				if !bytes.Equal(w1[i], w2[i]) {
					t.Fatalf("packet %d differs across calls with the same seed", i)
				}
			}
			if len(e1) != len(e2) {
				t.Fatalf("expect vector arity differs: %v vs %v", e1, e2)
			}
			for i := range e1 {
				if e1[i] != e2[i] {
					t.Fatalf("expect[%d] differs across calls: %d vs %d", i, e1[i], e2[i])
				}
			}
			if got := len(w1); got != spec.TotalRequests() {
				t.Fatalf("emitted %d packets, TotalRequests says %d", got, spec.TotalRequests())
			}
		})
	}
}

// TestTrafficSeedSensitivity: distinct seeds must yield distinct streams —
// a generator that ignores its seed would silently collapse every grid
// cell into the same traffic.
func TestTrafficSeedSensitivity(t *testing.T) {
	for _, base := range []Spec{DefaultKV(true), DefaultTLSH(true)} {
		base := base
		t.Run(base.Workload, func(t *testing.T) {
			other := base
			other.Seed = base.Seed + 1
			w1, _, err := Traffic(base)
			if err != nil {
				t.Fatal(err)
			}
			w2, _, err := Traffic(other)
			if err != nil {
				t.Fatal(err)
			}
			same := len(w1) == len(w2)
			if same {
				for i := range w1 {
					if !bytes.Equal(w1[i], w2[i]) {
						same = false
						break
					}
				}
			}
			if same {
				t.Fatal("streams for distinct seeds are byte-identical")
			}
		})
	}
}

// TestTrafficClientCountChangesStream: the client count is part of the
// stream's identity (per-client RNGs, round-robin interleave).
func TestTrafficClientCountChangesStream(t *testing.T) {
	a := DefaultKV(true)
	b := a
	b.Clients = a.Clients + 2
	wa, _, _ := Traffic(a)
	wb, _, _ := Traffic(b)
	if len(wa) == len(wb) {
		t.Fatalf("client count should change the request count here (%d vs %d packets)", len(wa), len(wb))
	}
}

// TestKVModelConsistency cross-checks the generator's store model against
// an independent replay of the emitted packets: the predicted hit/miss/
// delete counts must match what a server would actually observe.
func TestKVModelConsistency(t *testing.T) {
	spec := DefaultKV(false)
	spec.Multiplier = 3 // more traffic, more deletes and re-puts
	wire, expect, err := Traffic(spec)
	if err != nil {
		t.Fatal(err)
	}
	store := map[uint64]bool{}
	var processed, hits, misses, puts, delhits, scanhits int64
	for _, pkt := range wire {
		op := binary.LittleEndian.Uint64(pkt[0:])
		a := binary.LittleEndian.Uint64(pkt[8:])
		switch op {
		case OpGet:
			if store[a] {
				hits++
			} else {
				misses++
			}
		case OpPut:
			vlen := binary.LittleEndian.Uint64(pkt[16:])
			if int(vlen) != len(pkt)-24 {
				t.Fatalf("put packet length field %d does not match payload %d", vlen, len(pkt)-24)
			}
			if vlen == 0 || vlen > MaxValueLen {
				t.Fatalf("put value length %d outside (0, %d]", vlen, MaxValueLen)
			}
			store[a] = true
			puts++
		case OpDel:
			if store[a] {
				delete(store, a)
				delhits++
			}
		case OpScan:
			span := binary.LittleEndian.Uint64(pkt[16:])
			for k := a; k < a+span; k++ {
				if store[k] {
					scanhits++
				}
			}
		default:
			t.Fatalf("unknown op %d", op)
		}
		processed++
	}
	got := []int64{processed, hits, misses, puts, delhits, scanhits}
	for i := range expect {
		if got[i] != expect[i] {
			t.Fatalf("replayed counters %v disagree with predicted %v (index %d)", got, expect, i)
		}
	}
}

// TestMissKeysAliasOccupiedBuckets: miss traffic must be absent by
// construction yet congruent mod KVBuckets with the present key range —
// even when KeySpace is smaller than the bucket count — so a miss walks
// a hash chain instead of probing a bucket no put can ever touch.
func TestMissKeysAliasOccupiedBuckets(t *testing.T) {
	spec := DefaultKV(true) // KeySpace 64 < KVBuckets: the regression case
	if spec.KeySpace >= KVBuckets {
		t.Fatalf("test wants a sub-bucket key space, got %d", spec.KeySpace)
	}
	spec = spec.normalized()
	wire, expect, err := Traffic(spec)
	if err != nil {
		t.Fatal(err)
	}
	if expect[2] == 0 {
		t.Fatal("stream produced no misses")
	}
	for i, pkt := range wire {
		op := binary.LittleEndian.Uint64(pkt[0:])
		key := binary.LittleEndian.Uint64(pkt[8:])
		if (op != OpGet && op != OpDel) || key < spec.KeySpace {
			continue
		}
		if key%KVBuckets >= spec.KeySpace {
			t.Fatalf("packet %d: miss key %d maps to bucket %d, outside the occupied range [0,%d)",
				i, key, key%KVBuckets, spec.KeySpace)
		}
	}
}

// TestHitRatioTargeting: with a warm store, the realized hit ratio must
// track the target at both extremes.
func TestHitRatioTargeting(t *testing.T) {
	for _, target := range []int{0, 100} {
		spec := DefaultKV(false)
		spec.HitPct = target
		spec.DelPct = 0 // keep the store warm so 100% is reachable
		_, expect, err := Traffic(spec)
		if err != nil {
			t.Fatal(err)
		}
		hits, missesN := expect[1], expect[2]
		gets := hits + missesN
		if gets == 0 {
			t.Fatal("mix produced no gets")
		}
		realized := int(hits * 100 / gets)
		if target == 0 && realized != 0 {
			t.Fatalf("target 0%% hit ratio realized %d%%", realized)
		}
		if target == 100 && realized != 100 {
			t.Fatalf("target 100%% hit ratio realized %d%%", realized)
		}
	}
}

// TestTrafficUnknownWorkload: the engine rejects unknown families and
// unknown key skews before it emits any stream.
func TestTrafficUnknownWorkload(t *testing.T) {
	badSkew := DefaultKV(true)
	badSkew.Skew = "pareto"
	for _, spec := range []Spec{{Workload: "smtp"}, badSkew} {
		if _, _, err := Traffic(spec); err == nil {
			t.Fatalf("Traffic(workload %q, skew %q) must error", spec.Workload, spec.Skew)
		}
	}
}

// TestSkewShapesStream: the skew is part of the stream's identity — a
// zipf stream differs from the uniform one with the same seed.
func TestSkewShapesStream(t *testing.T) {
	uni := DefaultKV(false)
	zipf := uni
	zipf.Skew = SkewZipf
	wu, _, err := Traffic(uni)
	if err != nil {
		t.Fatal(err)
	}
	wz, _, err := Traffic(zipf)
	if err != nil {
		t.Fatal(err)
	}
	if slices.EqualFunc(wu, wz, bytes.Equal) {
		t.Fatal("zipf skew left the stream byte-identical to uniform")
	}
}

// TestFigureGridShape pins the acceptance-level grid coverage: the full
// grid must sweep at least 1x/10x/100x and at least three hit ratios for
// the KV family.
func TestFigureGridShape(t *testing.T) {
	specs := FigureGrid(false, DefaultSeed)
	mults := map[int]bool{}
	ratios := map[int]bool{}
	seeds := map[uint64]bool{}
	for _, s := range specs {
		if s.Workload == WorkloadKV {
			mults[s.Multiplier] = true
			ratios[s.HitPct] = true
		}
		if seeds[s.Seed] {
			t.Fatalf("grid cell %s reuses another cell's seed", s.Name)
		}
		seeds[s.Seed] = true
	}
	for _, m := range []int{1, 10, 100} {
		if !mults[m] {
			t.Fatalf("grid lacks the %dx multiplier", m)
		}
	}
	if len(ratios) < 3 {
		t.Fatalf("grid has %d hit ratios, want >= 3", len(ratios))
	}
}
