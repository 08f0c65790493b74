package obs

import (
	"encoding/json"
	"math/bits"
	"reflect"
	"strings"
	"testing"

	"confllvm/internal/rng"
)

func TestBucketRoundTrip(t *testing.T) {
	// Every value maps to a bucket whose upper bound is >= the value,
	// and bucketUpper(b) itself maps back to bucket b.
	vals := []uint64{0, 1, 31, 32, 33, 63, 64, 100, 1023, 1024, 1 << 20, 1<<63 + 12345, ^uint64(0)}
	for _, v := range vals {
		b := bucketOf(v)
		if u := bucketUpper(b); u < v {
			t.Errorf("bucketUpper(bucketOf(%d)) = %d < value", v, u)
		}
		if got := bucketOf(bucketUpper(b)); got != b {
			t.Errorf("bucketOf(bucketUpper(%d)) = %d", b, got)
		}
		if b < 0 || b >= histNumBuckets {
			t.Fatalf("bucket %d out of range for %d", b, v)
		}
	}
	// Relative error bound: bucket width / value <= 1/32.
	for v := uint64(64); v != 0; v <<= 1 {
		b := bucketOf(v + v/3)
		width := bucketUpper(b) - (bucketUpper(b-1) + 1) + 1
		if width > (v+v/3)/16 {
			t.Errorf("bucket width %d too coarse at %d", width, v+v/3)
		}
	}
	_ = bits.Len64 // keep import honest if constants change
}

func TestHistogramExactSmallQuantiles(t *testing.T) {
	var h Histogram
	for v := uint64(1); v <= 20; v++ {
		h.Observe(v)
	}
	// Values < 32 land in exact buckets, so quantiles are exact order
	// statistics (upper-bound convention: rank ceil(n*p/100)).
	for _, tc := range []struct {
		p    int
		want uint64
	}{
		{0, 1}, {50, 10}, {95, 19}, {99, 20}, {100, 20},
	} {
		if got := h.Quantile(tc.p); got != tc.want {
			t.Errorf("p%d = %d, want %d", tc.p, got, tc.want)
		}
	}
	if h.Mean() != 10 {
		t.Errorf("mean = %d, want 10", h.Mean())
	}
	if h.Min != 1 || h.Max != 20 {
		t.Errorf("min/max = %d/%d", h.Min, h.Max)
	}
}

func TestHistogramDeterminismAndSeedSensitivity(t *testing.T) {
	fill := func(seed uint64) *Histogram {
		var h Histogram
		r := rng.New(seed)
		for i := 0; i < 5000; i++ {
			h.Observe(r.Next() % 1_000_000)
		}
		return &h
	}
	a, b := fill(7), fill(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different histograms")
	}
	c := fill(8)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical histograms")
	}
	// Quantile clamps to the observed max.
	if a.Quantile(100) != a.Max {
		t.Errorf("p100 = %d, want max %d", a.Quantile(100), a.Max)
	}
}

func TestHistogramMergeEqualsSingle(t *testing.T) {
	// Observing a stream into one histogram == splitting it across
	// shards and merging in any order.
	r := rng.New(42)
	vals := make([]uint64, 999)
	for i := range vals {
		vals[i] = r.Next() % (1 << 40)
	}
	var whole Histogram
	for _, v := range vals {
		whole.Observe(v)
	}
	shard := make([]*Histogram, 7)
	for i := range shard {
		shard[i] = &Histogram{}
	}
	for i, v := range vals {
		shard[i%7].Observe(v)
	}
	for _, order := range [][]int{{0, 1, 2, 3, 4, 5, 6}, {6, 2, 0, 5, 3, 1, 4}} {
		var m Histogram
		for _, i := range order {
			m.Merge(shard[i])
		}
		if !reflect.DeepEqual(&m, &whole) {
			t.Fatalf("merge order %v != whole-stream histogram", order)
		}
	}
}

func TestRegistryMergeOrderInvariance(t *testing.T) {
	mk := func(seed uint64) *Registry {
		r := NewRegistry()
		g := rng.New(seed)
		for i := 0; i < 200; i++ {
			r.Counter("reqs", 1)
			r.Gauge("queue-depth", g.Next()%64)
			r.Hist("latency").Observe(g.Next() % 100_000)
		}
		r.Counter("shards", 1)
		return r
	}
	parts := []*Registry{mk(1), mk(2), mk(3), mk(4)}
	perms := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}, {1, 3, 0, 2}}
	var want string
	for pi, perm := range perms {
		m := NewRegistry()
		for _, i := range perm {
			m.Merge(parts[i])
		}
		snap := m.Snapshot()
		if pi == 0 {
			want = snap
			if m.CounterValue("reqs") != 800 || m.CounterValue("shards") != 4 {
				t.Fatalf("counter sums wrong:\n%s", snap)
			}
		} else if snap != want {
			t.Fatalf("merge order %v changed snapshot:\n%s\nvs\n%s", perm, snap, want)
		}
	}
	if !strings.Contains(want, "hist latency count=800") {
		t.Fatalf("snapshot missing merged hist:\n%s", want)
	}
}

func TestTracerWellFormed(t *testing.T) {
	tr := NewTracer()
	root := tr.Span("epoch", 0, 100, 900)
	tr.Span("run", root, 100, 700)
	tr.Span("backoff", root, 700, 900)
	if err := tr.WellFormed(); err != nil {
		t.Fatalf("good tree rejected: %v", err)
	}

	bad := NewTracer()
	bad.Span("child", 2, 0, 10) // parent not yet emitted
	if err := bad.WellFormed(); err == nil {
		t.Fatal("forward parent reference accepted")
	}

	escape := NewTracer()
	p := escape.Span("parent", 0, 100, 200)
	escape.Span("child", p, 150, 300) // escapes parent interval
	if err := escape.WellFormed(); err == nil {
		t.Fatal("non-nested child accepted")
	}

	rev := NewTracer()
	rev.Span("negative", 0, 50, 40)
	if err := rev.WellFormed(); err == nil {
		t.Fatal("end<start accepted")
	}
}

func TestTracerExports(t *testing.T) {
	tr := NewTracer()
	root := tr.Span("request", 0, 2000, 10000)
	tr.Span("T:recv", root, 2100, 2400)
	j1, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := tr.JSON()
	if string(j1) != string(j2) {
		t.Fatal("JSON export not deterministic")
	}
	var spans []Span
	if err := json.Unmarshal(j1, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || spans[1].Parent != root {
		t.Fatalf("roundtrip mismatch: %+v", spans)
	}
	ct, err := tr.ChromeTrace(2000)
	if err != nil {
		t.Fatal(err)
	}
	var evs []map[string]interface{}
	if err := json.Unmarshal(ct, &evs); err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 || evs[0]["ph"] != "X" {
		t.Fatalf("chrome trace malformed: %s", ct)
	}
	ct2, _ := tr.ChromeTrace(2000)
	if string(ct) != string(ct2) {
		t.Fatal("chrome trace not deterministic")
	}
}

func TestProfileMergeAndFolded(t *testing.T) {
	a := NewFuncProfile()
	a.Add("main", 100, 40, 2)
	a.Add("T:send", 50, 0, 1)
	b := NewFuncProfile()
	b.Add("main", 11, 4, 1)
	b.Add("hash", 7, 3, 1)
	a.Merge(b)
	if got := a.TotalCycles(); got != 168 {
		t.Fatalf("total = %d, want 168", got)
	}
	top := a.Top()
	if top[0].Name != "main" || top[0].Cycles != 111 || top[0].Hits != 3 {
		t.Fatalf("top[0] = %+v", top[0])
	}
	want := "T:send 50\nhash 7\nmain 111\n"
	if got := a.Folded(); got != want {
		t.Fatalf("folded = %q, want %q", got, want)
	}
}
