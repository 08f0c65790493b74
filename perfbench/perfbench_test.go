package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"confllvm/internal/bench"
)

// TestStagedCompileMatchesCompile is the compile fidelity check: the
// stage-by-stage compile path links the same image as confllvm.Compile for every
// (program, variant), so the traced per-stage numbers describe the
// measured compilation.
func TestStagedCompileMatchesCompile(t *testing.T) {
	tr := newTracer()
	for _, j := range compileJobs(0x1234) {
		want, err := compilePublic(j, 2)
		if err != nil {
			t.Fatal(err)
		}
		op := tr.NewOp()
		root := tr.Begin("compile", -1, op, false)
		got, _, err := compileStaged(j, 2, tr, op, root)
		tr.End(root)
		if err != nil {
			t.Fatal(err)
		}
		if imageDigest(got) != imageDigest(want) {
			t.Errorf("%s [%v]: staged image differs from confllvm.Compile", j.name, j.v)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestTracedRunMatchesUntraced checks that wrapping the trusted handlers
// and recording spans leaves the simulated run unchanged: the traced
// kernels and KV replay give the same architectural stats, wall cycles,
// outputs and serving metrics as untraced ones.
func TestTracedRunMatchesUntraced(t *testing.T) {
	want, err := expectedChecksums()
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	cells := map[bool][]*specCell{}
	for _, traced := range []bool{false, true} {
		cs, err := specCells(compileVariants, 7, 2, want)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cs {
			var ctr *Tracer
			if traced {
				ctr = tr
			}
			if _, err := c.run(ctr); err != nil {
				t.Fatal(err)
			}
		}
		cells[traced] = cs
	}
	for i, c := range cells[true] {
		u := cells[false][i]
		if c.ref.Arch() != u.ref.Arch() || c.refWall != u.refWall {
			t.Errorf("%s [%v]: traced %+v/%d, untraced %+v/%d",
				c.kernel.Name, c.v, c.ref.Arch(), c.refWall, u.ref.Arch(), u.refWall)
		}
	}

	sims := map[bool]kvSim{}
	for _, traced := range []bool{false, true} {
		k, err := newKVPhase(3, 7, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		var ktr *Tracer
		var hs handlerSim
		if traced {
			ktr, hs = tr, handlerSim{}
		}
		if _, err := k.serve(ktr, hs); err != nil {
			t.Fatal(err)
		}
		if traced && hs["recv"].calls != uint64(len(k.wire)) {
			t.Errorf("observed %d recv calls for %d packets", hs["recv"].calls, len(k.wire))
		}
		if sims[traced], err = k.simulate(3); err != nil {
			t.Fatal(err)
		}
	}
	if sims[true] != sims[false] {
		t.Errorf("traced serving metrics %+v, untraced %+v", sims[true], sims[false])
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestSpanTree runs a short traced benchmark and checks the span tree:
// children lie inside their parents, the compile stages of one operation
// are disjoint and in pipeline order, and each machine span's self time
// plus its trusted-handler spans equals the Finish span exactly.
func TestSpanTree(t *testing.T) {
	r, err := run(config{workload: "kv-serve", seed: 5, seconds: 0.2, trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("%d failed operations: %v", r.failed, r.errs)
	}
	tr := r.tr
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	self := tr.SelfNS()
	children := map[int32][]int{}
	for i := 0; i < tr.Len(); i++ {
		if p := tr.At(i).Parent; p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	stageOrder := []string{"minic", "irgen", "opt", "taint", "codegen", "link", "verify"}
	var machines, compiles int
	for i := 0; i < tr.Len(); i++ {
		s := tr.At(i)
		switch {
		case strings.HasSuffix(tr.Name(s), "/machine"):
			machines++
			trtNS := int64(0)
			for _, c := range children[int32(i)] {
				if name := tr.Name(tr.At(c)); !strings.Contains(name, "/trt/") {
					t.Fatalf("machine span has a %s child", name)
				}
				trtNS += self[c]
			}
			if self[i]+trtNS != s.End-s.Start {
				t.Fatalf("machine self %d + trt %d != Finish %d", self[i], trtNS, s.End-s.Start)
			}
		case tr.Name(s) == "compile":
			compiles++
			next := 0
			for _, c := range children[int32(i)] {
				name := tr.Name(tr.At(c))
				for next < len(stageOrder) && stageOrder[next] != name {
					next++
				}
				if next == len(stageOrder) {
					t.Fatalf("compile stage %s out of pipeline order", name)
				}
			}
		}
	}
	if machines == 0 || compiles == 0 {
		t.Fatalf("traced run recorded %d machine and %d compile spans", machines, compiles)
	}
}

// TestSeedSensitivity checks that another seed changes the kv-serve wire
// stream and its simulated serving metrics while every correctness
// reference still holds.
func TestSeedSensitivity(t *testing.T) {
	var wires [][][]byte
	var sims []kvSim
	for _, seed := range []uint64{1, 2} {
		k, err := newKVPhase(seed, 7, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := k.serve(nil, nil); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		s, err := k.simulate(seed)
		if err != nil {
			t.Fatal(err)
		}
		wires, sims = append(wires, k.wire), append(sims, s)
	}
	if reflect.DeepEqual(wires[0], wires[1]) {
		t.Error("seeds 1 and 2 generate the same wire stream")
	}
	if sims[0].cyclesPerReq == sims[1].cyclesPerReq || sims[0].p99Heavy == sims[1].p99Heavy {
		t.Errorf("seeds 1 and 2 give the same serving metrics: %+v", sims[0])
	}
}

// TestMetricsMatchBenchmarkJSON checks that an untraced run reports every
// end-to-end metric of BENCHMARK.json, non-zero and in its unit, and a
// traced run every per-layer metric.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var spec struct {
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		r, err := run(config{workload: "compile", seed: 9, seconds: 0.2, trace: traced})
		if err != nil {
			t.Fatal(err)
		}
		if r.failed != 0 {
			t.Fatalf("%d failed operations: %v", r.failed, r.errs)
		}
		defs := spec.EndToEnd
		if traced {
			defs = spec.PerLayer
		}
		if len(r.metrics) != len(defs) {
			t.Errorf("traced=%v: run reports %d metrics, BENCHMARK.json lists %d", traced, len(r.metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := r.metrics[d.Name]
			switch {
			case !ok:
				t.Errorf("traced=%v: metric %s missing", traced, d.Name)
			case m.Unit != d.Unit:
				t.Errorf("metric %s in %s, BENCHMARK.json says %s", d.Name, m.Unit, d.Unit)
			case !traced && m.Value <= 0:
				t.Errorf("end-to-end metric %s = %v", d.Name, m.Value)
			}
		}
	}
}

func TestQueueReplay(t *testing.T) {
	lat, growing := queueReplay([]uint64{10, 10, 10}, []uint64{0, 5, 30}, nil)
	if !reflect.DeepEqual(lat, []uint64{10, 15, 10}) || growing {
		t.Errorf("latencies %v growing %v", lat, growing)
	}
	// Arrivals faster than service: the queue only grows.
	_, growing = queueReplay([]uint64{10, 10, 10, 10}, []uint64{1, 2, 3, 4}, nil)
	if !growing {
		t.Error("saturated queue not reported as growing")
	}
}

func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]float64{20000: 95, 200: 95, 199: 90, 100: 90, 10: 50} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

// TestDesignMatchesCode keeps design.json's kv-serve queue settings and
// phase shares in step with the code.
func TestDesignMatchesCode(t *testing.T) {
	data, err := os.ReadFile("design.json")
	if err != nil {
		t.Fatal(err)
	}
	var d struct {
		Run struct {
			Shares map[string][3]float64 `json:"phase_shares"`
		} `json:"run"`
		KV struct {
			Clock   uint64   `json:"simulated_clock_hz"`
			SLO     uint64   `json:"slo_p99_cycles"`
			Light   uint64   `json:"light_gap_cycles"`
			Heavy   uint64   `json:"heavy_gap_cycles"`
			Streams uint64   `json:"arrival_streams_per_rate"`
			Ladder  []uint64 `json:"gap_ladder_cycles"`
		} `json:"kv_serve_queue"`
		Kernels map[string][]int64 `json:"kernel_inputs"`
	}
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.Run.Shares, workloadShares) {
		t.Errorf("design.json shares %v, code %v", d.Run.Shares, workloadShares)
	}
	if d.KV.Clock != bench.SimClockHz || d.KV.SLO != kvSLOCycles || d.KV.Light != kvLightGap ||
		d.KV.Heavy != kvHeavyGap || d.KV.Streams != kvArrivalStreams || !reflect.DeepEqual(d.KV.Ladder, kvGapLadder) {
		t.Errorf("design.json kv_serve_queue %+v differs from the code", d.KV)
	}
	if !reflect.DeepEqual(d.Kernels, specParams) {
		t.Errorf("design.json kernel_inputs %v, code %v", d.Kernels, specParams)
	}
}
