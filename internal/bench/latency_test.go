package bench

import (
	"reflect"
	"testing"

	"confllvm"
	"confllvm/internal/machine"
	"confllvm/internal/obs"
	"confllvm/internal/scenario"
)

func latSpec() scenario.Spec { return scenario.DefaultKV(true) }

func latArr(seed uint64) scenario.Arrival {
	return scenario.Arrival{Kind: scenario.ArrivalPoisson, Seed: seed, MeanGap: 16384}
}

// TestLatencyDispatchInvariance pins the figure's core contract: the
// latency report is a simulated quantity, so stepwise, unchained,
// chained and fused dispatch must produce byte-identical reports
// (architectural stats too; FusedSlots/Defuses are observability
// counters and may differ, hence Arch()).
func TestLatencyDispatchInvariance(t *testing.T) {
	var reports []*LatencyReport
	var stats []machine.Stats
	for _, mode := range []struct {
		name        string
		superblocks bool
		chain       bool
		fuse        bool
	}{
		{"stepwise", false, false, false},
		{"nochain", true, false, false},
		{"chained", true, true, false},
		{"fused", true, true, true},
	} {
		conf := machine.DefaultConfig()
		conf.Superblocks = mode.superblocks
		conf.Chain = mode.chain
		conf.Fuse = mode.fuse
		m, err := RunLatency(latSpec(), latArr(7), confllvm.VariantMPX, &conf, nil)
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		reports = append(reports, m.Latency)
		stats = append(stats, m.Stats)
	}
	for i := 1; i < len(reports); i++ {
		if !reflect.DeepEqual(reports[0], reports[i]) {
			t.Errorf("latency report differs across dispatch modes:\n%+v\nvs\n%+v", reports[0], reports[i])
		}
		if stats[0].Arch() != stats[i].Arch() {
			t.Errorf("stats differ across dispatch modes: %+v vs %+v", stats[0], stats[i])
		}
	}
	r := reports[0]
	if r.Requests == 0 || r.SvcMean == 0 || r.P50 == 0 {
		t.Fatalf("degenerate report: %+v", r)
	}
	if r.P50 > r.P95 || r.P95 > r.P99 || r.P99 > r.Max {
		t.Fatalf("quantiles not monotone: %+v", r)
	}
}

// TestLatencySeedAndRateSensitivity: different arrival seeds change the
// stream (and almost surely the tail), and shrinking the gap toward the
// service time must not reduce latency.
func TestLatencySeedAndRateSensitivity(t *testing.T) {
	m1, err := RunLatency(latSpec(), latArr(7), confllvm.VariantMPX, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := RunLatency(latSpec(), latArr(8), confllvm.VariantMPX, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(m1.Latency, m2.Latency) {
		t.Fatal("different arrival seeds produced identical latency reports")
	}
	// Same service times, overloaded arrivals: p99 must not improve.
	over, err := RunLatency(latSpec(), scenario.Arrival{
		Kind: scenario.ArrivalPoisson, Seed: 7, MeanGap: 512,
	}, confllvm.VariantMPX, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if over.Latency.P99 < m1.Latency.P99 {
		t.Errorf("overload p99 %d < light-load p99 %d", over.Latency.P99, m1.Latency.P99)
	}
	if over.Latency.MaxQueue <= m1.Latency.MaxQueue {
		t.Errorf("overload max queue %d not above light-load %d",
			over.Latency.MaxQueue, m1.Latency.MaxQueue)
	}
}

// TestLatencyMatrixDeterminism runs the short latency grid through the
// parallel matrix at 1 and 8 workers: every simulated field must match.
func TestLatencyMatrixDeterminism(t *testing.T) {
	sweeps := LatencyGrid(true, scenario.DefaultSeed)
	mk := func(workers int) []CellResult {
		return RunMatrix(LatencyCells("latency", sweeps, confllvm.VariantMPX, nil), workers)
	}
	serial, par := mk(1), mk(8)
	if len(serial) != len(sweeps) {
		t.Fatalf("got %d results for %d sweeps", len(serial), len(sweeps))
	}
	for i := range serial {
		if serial[i].Err != nil || par[i].Err != nil {
			t.Fatalf("row %s: %v / %v", sweeps[i].Row, serial[i].Err, par[i].Err)
		}
		a, b := serial[i].M, par[i].M
		if !reflect.DeepEqual(a.Latency, b.Latency) {
			t.Errorf("row %s: latency differs across -parallel:\n%+v\nvs\n%+v",
				sweeps[i].Row, a.Latency, b.Latency)
		}
		if a.Stats != b.Stats || a.Wall != b.Wall {
			t.Errorf("row %s: stats differ across -parallel", sweeps[i].Row)
		}
		if a.Latency.Registry.Snapshot() != b.Latency.Registry.Snapshot() {
			t.Errorf("row %s: registry snapshot differs across -parallel", sweeps[i].Row)
		}
	}
}

// TestLatencySpans: the per-request span trees are well-formed and cover
// every request, and tracing does not perturb the report.
func TestLatencySpans(t *testing.T) {
	tr := obs.NewTracer()
	m, err := RunLatency(latSpec(), latArr(7), confllvm.VariantMPX, nil, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WellFormed(); err != nil {
		t.Fatalf("span tree: %v", err)
	}
	var reqs int
	for _, s := range tr.Spans() {
		if s.Name == "req" {
			reqs++
		}
	}
	if uint64(reqs) != m.Latency.Requests {
		t.Fatalf("%d req spans for %d requests", reqs, m.Latency.Requests)
	}
	plain, err := RunLatency(latSpec(), latArr(7), confllvm.VariantMPX, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Latency, plain.Latency) {
		t.Fatal("tracing changed the latency report")
	}
}

// TestWorkloadProfileConservation: profiles over a real compiled
// workload attribute exactly the cycles the run charged — no symbol
// gains or loses a cycle in symbolization — and profiling changes no
// simulated number.
func TestWorkloadProfileConservation(t *testing.T) {
	conf := machine.DefaultConfig()
	conf.Profile = true
	for _, spec := range []scenario.Spec{scenario.DefaultKV(true), scenario.DefaultTLSH(true)} {
		wl := ScenarioWorkload(spec)
		m, err := wl.Run(confllvm.VariantMPX, &conf)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if m.Profile == nil {
			t.Fatalf("%s: no profile with Profile=true", spec.Name)
		}
		if got, want := m.Profile.TotalCycles(), m.Stats.Cycles; got != want {
			t.Errorf("%s: profile total %d != run cycles %d", spec.Name, got, want)
		}
		plain, err := wl.Run(confllvm.VariantMPX, nil)
		if err != nil {
			t.Fatal(err)
		}
		if m.Stats != plain.Stats {
			t.Errorf("%s: profiling changed stats: %+v vs %+v", spec.Name, m.Stats, plain.Stats)
		}
		// The serving loop and at least one trusted handler must appear.
		top := m.Profile.Top()
		if len(top) < 2 {
			t.Fatalf("%s: profile too small: %+v", spec.Name, top)
		}
		var sawHandler bool
		for _, c := range top {
			if len(c.Name) > 2 && c.Name[:2] == "T:" {
				sawHandler = true
			}
			if len(c.Name) > 3 && c.Name[:3] == "pc:" {
				t.Errorf("%s: unsymbolized cost %+v", spec.Name, c)
			}
		}
		if !sawHandler {
			t.Errorf("%s: no trusted-handler cost in profile", spec.Name)
		}
	}
}

// TestSuperviseTrace: supervised serving under injected faults emits a
// well-formed epoch span forest, and tracing leaves the report alone.
func TestSuperviseTrace(t *testing.T) {
	spec := scenario.DefaultKV(true)
	wl := ScenarioWorkload(spec)
	wire, _, err := scenario.Traffic(spec)
	if err != nil {
		t.Fatal(err)
	}
	run := func(tr *obs.Tracer) *ServeReport {
		pol := DefaultFaultPolicy(1234, 150) // 15% fault rate: restarts guaranteed
		pol.Trace = tr
		rep, err := Supervise(wl.Key, wl.Prog(confllvm.VariantMPX), confllvm.VariantMPX, wire, nil, pol)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	tr := obs.NewTracer()
	rep := run(tr)
	if err := tr.WellFormed(); err != nil {
		t.Fatalf("epoch span tree: %v", err)
	}
	var epochs, faulted int
	for _, s := range tr.Spans() {
		switch {
		case s.Name == "epoch":
			epochs++
		case len(s.Name) > 4 && s.Name[:4] == "run:":
			faulted++
		}
	}
	if epochs != rep.Epochs {
		t.Errorf("%d epoch spans for %d epochs", epochs, rep.Epochs)
	}
	if rep.Restarts > 0 && faulted == 0 {
		t.Errorf("report shows %d restarts but no faulted run spans", rep.Restarts)
	}
	if plain := run(nil); !reflect.DeepEqual(rep, plain) {
		t.Error("tracing changed the serve report")
	}
}
