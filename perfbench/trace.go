package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"strings"
	"time"
)

// Span is one timed interval of a traced run, recorded by the benchmark
// around a call into one layer's public functions. It is kept to 32 bytes:
// a traced kv-serve run holds millions of them.
type Span struct {
	Start  int64 // ns since the tracer's epoch
	End    int64
	Parent int32 // index of the enclosing span; -1 for an operation's root
	Op     int32 // shared by every span of one operation
	// Allocs is the number of heap objects allocated inside the span, or
	// -1 when the span does not count them.
	Allocs int32
	name   uint16 // index into Tracer.names
}

// spanChunk is the number of spans per storage chunk. A traced kv-serve
// run records millions of handler spans; fixed chunks grow without the
// copy (and transient double footprint) of appending to one slice.
const spanChunk = 1 << 14

// Tracer keeps a run's spans in memory; Write dumps them when the run ends.
type Tracer struct {
	epoch  time.Time
	chunks [][]Span
	n      int
	nextOp int32
	names  []string
	nameID map[string]uint16
	self   []int64 // SelfNS cache
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now(), nameID: map[string]uint16{}} }

// Name returns the span's name.
func (t *Tracer) Name(s *Span) string { return t.names[s.name] }

// Len is the number of spans recorded.
func (t *Tracer) Len() int { return t.n }

// At returns span i (0 <= i < Len()).
func (t *Tracer) At(i int) *Span { return &t.chunks[i/spanChunk][i%spanChunk] }

// NewOp returns a fresh operation id.
func (t *Tracer) NewOp() int32 {
	t.nextOp++
	return t.nextOp
}

// Begin opens a span and returns its index. countAllocs reads the heap
// allocation counter at both ends (a few hundred ns each way), so it is
// reserved for spans that are not per-call.
func (t *Tracer) Begin(name string, parent, op int32, countAllocs bool) int32 {
	id, ok := t.nameID[name]
	if !ok {
		id = uint16(len(t.names))
		t.names = append(t.names, name)
		t.nameID[name] = id
	}
	allocs := int32(-1)
	if countAllocs {
		allocs = int32(heapObjects())
	}
	if t.n == len(t.chunks)*spanChunk {
		t.chunks = append(t.chunks, make([]Span, spanChunk))
	}
	*t.At(t.n) = Span{name: id, Parent: parent, Op: op, Allocs: allocs,
		Start: time.Since(t.epoch).Nanoseconds()}
	t.n++
	return int32(t.n - 1)
}

// End closes span i.
func (t *Tracer) End(i int32) {
	s := t.At(int(i))
	s.End = time.Since(t.epoch).Nanoseconds()
	if s.Allocs >= 0 {
		s.Allocs = int32(heapObjects()) - s.Allocs // wraps consistently at both ends
	}
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

// heapObjects is the process's cumulative count of heap allocations. The
// runtime counts small objects per span refill, so a short interval's
// count is exact only to within a few dozen objects.
func heapObjects() int64 {
	metrics.Read(allocSample)
	return int64(allocSample[0].Value.Uint64())
}

// SelfNS returns every span's duration minus the durations of its direct
// children (children of one parent never overlap; Check enforces it). It
// is computed once, after the run has recorded its last span.
func (t *Tracer) SelfNS() []int64 {
	if len(t.self) == t.n {
		return t.self
	}
	t.self = make([]int64, t.n)
	for i := 0; i < t.n; i++ {
		s := t.At(i)
		t.self[i] += s.End - s.Start
		if s.Parent >= 0 {
			t.self[s.Parent] -= s.End - s.Start
		}
	}
	return t.self
}

// layerSums adds up the self time and allocations of the spans whose name
// matches, per operation, in operation order. Allocations are summed only
// over spans that counted them.
func (t *Tracer) layerSums(match func(string) bool) (ns, allocs []float64) {
	self := t.SelfNS()
	type sum struct{ ns, allocs int64 }
	per := map[int32]*sum{}
	var ops []int32
	for i := 0; i < t.n; i++ {
		s := t.At(i)
		if !match(t.names[s.name]) {
			continue
		}
		p := per[s.Op]
		if p == nil {
			p = &sum{}
			per[s.Op] = p
			ops = append(ops, s.Op)
		}
		p.ns += self[i]
		if s.Allocs > 0 {
			p.allocs += int64(s.Allocs)
		}
	}
	for _, op := range ops {
		ns = append(ns, float64(per[op].ns))
		allocs = append(allocs, float64(per[op].allocs))
	}
	return ns, allocs
}

func named(name string) func(string) bool {
	return func(s string) bool { return s == name }
}

func prefixed(prefix string) func(string) bool {
	return func(s string) bool { return strings.HasPrefix(s, prefix) }
}

// Check verifies the span tree: every span ends after it starts, lies
// inside its parent and shares its parent's operation, and the children of
// one parent are disjoint (so the compile stages of one operation never
// overlap and self times add up).
func (t *Tracer) Check() error {
	lastChildEnd := make([]int64, t.n)
	hasChild := make([]bool, t.n)
	for i := 0; i < t.n; i++ {
		s := t.At(i)
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", i, t.Name(s))
		}
		if s.Parent < 0 {
			continue
		}
		if int(s.Parent) >= i {
			return fmt.Errorf("span %d (%s) has a later parent %d", i, t.Name(s), s.Parent)
		}
		p := t.At(int(s.Parent))
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) [%d,%d] outside parent %s [%d,%d]",
				i, t.Name(s), s.Start, s.End, t.Name(p), p.Start, p.End)
		}
		if s.Op != p.Op {
			return fmt.Errorf("span %d (%s) op %d under parent op %d", i, t.Name(s), s.Op, p.Op)
		}
		if hasChild[s.Parent] && s.Start < lastChildEnd[s.Parent] {
			return fmt.Errorf("span %d (%s) overlaps an earlier sibling under %s", i, t.Name(s), t.Name(p))
		}
		hasChild[s.Parent], lastChildEnd[s.Parent] = true, s.End
	}
	return nil
}

// Write dumps the spans as gzipped JSON lines in start order; a span's
// parent is the (0-based) line number of the enclosing span.
func (t *Tracer) Write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	type spanJSON struct {
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent int32  `json:"parent"`
		Op     int32  `json:"op"`
		Allocs int32  `json:"allocs"`
	}
	for i := 0; i < t.n; i++ {
		s := t.At(i)
		if err := enc.Encode(spanJSON{t.Name(s), s.Start, s.End, s.Parent, s.Op, s.Allocs}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
