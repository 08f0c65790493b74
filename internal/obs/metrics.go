// Package obs is the deterministic observability plane: metrics,
// request tracing and per-function profiles, all denominated in
// *simulated* cycles so every observation is byte-identical across
// dispatch modes (-superblocks) and across -parallel runs.
//
// The package deliberately has no clock and no randomness of its own:
// callers pass in simulated-cycle timestamps (machine Stats.Cycles) and
// every aggregate here — counters, gauges, histograms, span trees,
// flattened profiles — merges commutatively. That is what lets the
// bench matrix observe cells on worker goroutines in any completion
// order and still render one canonical table.
package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Histogram buckets: 32 sub-buckets per power-of-two octave (an
// HDR-histogram-style layout). Values < 32 get exact buckets; larger
// values land in bucket 32*(octave+1)+sub where the octave keeps the
// top 6 significant bits. Worst case (64-bit values) needs
// 32 + 32*59 = 1920 buckets, so the array is fixed-size and two
// histograms merge by plain per-bucket addition — commutative and
// associative by construction.
const (
	histSubBuckets = 32
	histNumBuckets = histSubBuckets * 60
)

// bucketOf maps a value to its bucket index.
func bucketOf(v uint64) int {
	if v < histSubBuckets {
		return int(v)
	}
	shift := uint(bits.Len64(v) - 6) // v >= 32 so Len64 >= 6
	top := v >> shift                // in [32, 64)
	return histSubBuckets*(int(shift)+1) + int(top-histSubBuckets)
}

// bucketUpper is the largest value that maps into bucket b.
func bucketUpper(b int) uint64 {
	if b < histSubBuckets {
		return uint64(b)
	}
	shift := uint(b/histSubBuckets - 1)
	top := uint64(histSubBuckets + b%histSubBuckets)
	return ((top + 1) << shift) - 1
}

// Histogram is a log-bucketed histogram of simulated-cycle values.
// The zero value is ready to use.
type Histogram struct {
	Count   uint64
	Sum     uint64
	Min     uint64 // valid only when Count > 0
	Max     uint64
	buckets [histNumBuckets]uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	h.Count++
	h.Sum += v
	h.buckets[bucketOf(v)]++
}

// Mean is the integer mean (0 when empty).
func (h *Histogram) Mean() uint64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / h.Count
}

// Quantile returns the p-th percentile (p in [0,100]) as the upper
// bound of the bucket holding the rank-⌈count·p/100⌉ observation,
// clamped to the observed max. Integer arithmetic only: the same
// observations in any order give the same answer.
func (h *Histogram) Quantile(p int) uint64 {
	if h.Count == 0 {
		return 0
	}
	rank := (h.Count*uint64(p) + 99) / 100
	if rank == 0 {
		rank = 1
	}
	var acc uint64
	for b := 0; b < histNumBuckets; b++ {
		acc += h.buckets[b]
		if acc >= rank {
			if u := bucketUpper(b); u < h.Max {
				return u
			}
			return h.Max
		}
	}
	return h.Max
}

// Merge folds o into h (per-bucket sums; min/max extremes). Merging in
// any order yields identical state.
func (h *Histogram) Merge(o *Histogram) {
	if o.Count == 0 {
		return
	}
	if h.Count == 0 || o.Min < h.Min {
		h.Min = o.Min
	}
	if o.Max > h.Max {
		h.Max = o.Max
	}
	h.Count += o.Count
	h.Sum += o.Sum
	for b, n := range o.buckets {
		h.buckets[b] += n
	}
}

// Registry holds named counters, high-watermark gauges and histograms.
// All three merge commutatively: counters by sum, gauges by max,
// histograms by bucket sum.
type Registry struct {
	counters map[string]uint64
	gauges   map[string]uint64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]uint64{},
		gauges:   map[string]uint64{},
		hists:    map[string]*Histogram{},
	}
}

// Counter adds delta to a named counter.
func (r *Registry) Counter(name string, delta uint64) { r.counters[name] += delta }

// CounterValue reads a counter (0 when absent).
func (r *Registry) CounterValue(name string) uint64 { return r.counters[name] }

// Gauge records a high-watermark gauge: the registry keeps the maximum
// value ever recorded, which is what makes gauge merges commutative.
func (r *Registry) Gauge(name string, v uint64) {
	if v > r.gauges[name] {
		r.gauges[name] = v
	}
}

// Hist returns the named histogram, creating it on first use.
func (r *Registry) Hist(name string) *Histogram {
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Merge folds o into r. Merging registries in any order yields an
// identical registry (the permutation test pins this).
func (r *Registry) Merge(o *Registry) {
	for k, v := range o.counters {
		r.counters[k] += v
	}
	for k, v := range o.gauges {
		if v > r.gauges[k] {
			r.gauges[k] = v
		}
	}
	for k, h := range o.hists {
		r.Hist(k).Merge(h)
	}
}

// Snapshot renders the registry as sorted text, one metric per line —
// the canonical byte-diffable form.
func (r *Registry) Snapshot() string {
	var b strings.Builder
	for _, k := range sortedKeys(r.counters) {
		fmt.Fprintf(&b, "counter %s %d\n", k, r.counters[k])
	}
	for _, k := range sortedKeys(r.gauges) {
		fmt.Fprintf(&b, "gauge %s %d\n", k, r.gauges[k])
	}
	hk := make([]string, 0, len(r.hists))
	for k := range r.hists {
		hk = append(hk, k)
	}
	sort.Strings(hk)
	for _, k := range hk {
		h := r.hists[k]
		fmt.Fprintf(&b, "hist %s count=%d min=%d mean=%d p50=%d p95=%d p99=%d max=%d\n",
			k, h.Count, h.Min, h.Mean(), h.Quantile(50), h.Quantile(95), h.Quantile(99), h.Max)
	}
	return b.String()
}

func sortedKeys(m map[string]uint64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
