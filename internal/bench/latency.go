package bench

import (
	"fmt"

	"confllvm"
	"confllvm/internal/machine"
	"confllvm/internal/obs"
	"confllvm/internal/scenario"
)

// LatencyReport is the outcome of one open-loop latency run: the
// serving program's per-request service times (measured at the trusted
// recv boundary in simulated cycles) pushed through a deterministic
// FIFO queue fed by a seeded arrival process. Every field is a
// simulated quantity — byte-identical across dispatch modes, matrix
// scheduling and -parallel settings.
type LatencyReport struct {
	// Requests is the number of served requests (= recv calls).
	Requests uint64 `json:"requests"`
	// Kind/MeanGap echo the arrival process (cycles).
	Kind    string `json:"kind"`
	MeanGap uint64 `json:"mean_gap_cycles"`
	// OfferedRPS is the empirical offered load: requests per simulated
	// second at SimClockHz over the arrival span.
	OfferedRPS uint64 `json:"offered_rps"`
	// SvcMean is the mean per-request service time in cycles; the
	// server saturates when MeanGap < SvcMean.
	SvcMean uint64 `json:"svc_mean_cycles"`
	// Latency quantiles in simulated cycles (queueing + service).
	P50 uint64 `json:"p50_cycles"`
	P95 uint64 `json:"p95_cycles"`
	P99 uint64 `json:"p99_cycles"`
	Max uint64 `json:"max_cycles"`
	// MaxQueue is the high-watermark queue depth (arrived, not done).
	MaxQueue uint64 `json:"max_queue"`
	// Registry holds the run's full metric set (latency and per-handler
	// histograms, counters, queue gauge); registries from many cells
	// merge commutatively for the figure's aggregate line.
	Registry *obs.Registry `json:"-"`
}

// RunLatency serves one scenario spec under an open-loop arrival
// process. The serving run itself is closed-loop (the simulated server
// consumes the wire back to back); per-request service times are
// recovered from the trusted recv boundary — request i's service is
// the cycle distance between consecutive recv dispatches — and a FIFO
// single-server queue simulation replays those services against the
// arrival timestamps. tracer, when non-nil, receives one span tree per
// request (req → queue/service children).
func RunLatency(spec scenario.Spec, arr scenario.Arrival, v confllvm.Variant,
	conf *machine.Config, tracer *obs.Tracer) (*Measurement, error) {
	wl := ScenarioWorkload(spec)
	reg := obs.NewRegistry()
	var reqs int
	var recv []uint64
	world := wl.World
	wl.World = func() *confllvm.World {
		w := world()
		reqs = len(w.NetIn)
		w.Observe = func(name string, start, end uint64) {
			reg.Counter("trusted-calls", 1)
			reg.Hist("handler:" + name).Observe(end - start)
			if name == "recv" {
				recv = append(recv, start)
			}
		}
		return w
	}
	m, err := wl.Run(v, conf)
	if err != nil {
		return nil, err
	}
	if len(m.Res.Machine.Threads) != 1 {
		return nil, fmt.Errorf("%s: latency model needs a single serving thread, got %d",
			wl.Name, len(m.Res.Machine.Threads))
	}
	n := len(recv)
	if n == 0 || n != reqs {
		return nil, fmt.Errorf("%s: observed %d recv dispatches for %d wire packets",
			wl.Name, n, reqs)
	}

	// Per-request service times at the recv boundary: the distance from
	// one recv dispatch to the next covers request i's full processing;
	// the final request runs to the thread's last cycle.
	svc := make([]uint64, n)
	for i := 0; i < n-1; i++ {
		svc[i] = recv[i+1] - recv[i]
	}
	svc[n-1] = m.Stats.Cycles - recv[n-1]
	for _, s := range svc {
		reg.Hist("service").Observe(s)
	}

	// FIFO single-server queue: request i starts at max(arrival_i,
	// done_{i-1}) and completes svc[i] later. Integer-only, so the
	// queue walk is as deterministic as the arrival stream feeding it.
	arrivals, err := arr.Times(n)
	if err != nil {
		return nil, err
	}
	done := make([]uint64, n)
	var prevDone, maxQ uint64
	dp := 0
	for i, a := range arrivals {
		s := a
		if prevDone > s {
			s = prevDone
		}
		d := s + svc[i]
		done[i] = d
		prevDone = d
		// Queue depth at the arrival instant, counting the arriver:
		// requests that arrived earlier and have not completed. done[]
		// is nondecreasing (FIFO), so a single pointer suffices.
		for dp < i && done[dp] <= a {
			dp++
		}
		depth := uint64(i - dp + 1)
		if depth > maxQ {
			maxQ = depth
		}
		reg.Gauge("queue-depth", depth)
		reg.Hist("latency").Observe(d - a)
		if tracer != nil {
			req := tracer.Span("req", 0, a, d)
			if s > a {
				tracer.Span("queue", req, a, s)
			}
			tracer.Span("service", req, s, d)
		}
	}

	lat := reg.Hist("latency")
	rep := &LatencyReport{
		Requests: uint64(n),
		Kind:     arr.Kind, MeanGap: arr.MeanGap,
		OfferedRPS: ReqsPerSec(uint64(n), arrivals[n-1]),
		SvcMean:    reg.Hist("service").Mean(),
		P50:        lat.Quantile(50), P95: lat.Quantile(95), P99: lat.Quantile(99),
		Max: lat.Max, MaxQueue: maxQ,
		Registry: reg,
	}
	m.Latency = rep
	return m, nil
}

// LatencySweep is one row of the latency figure: a traffic spec served
// under one arrival process.
type LatencySweep struct {
	Row  string
	Spec scenario.Spec
	Arr  scenario.Arrival
}

// latencyGaps are the mean inter-arrival gaps of the sweep in cycles.
// The KV service time is ~600-850 cycles per request (shorter grids
// serve pricier requests), so the three gaps put the queue in light
// load (<10% utilization), heavy load (60-85%) and overload (the
// offered rate exceeds the ~2 GHz service rate) — the classic
// latency-vs-load knee, with the overload row showing queue growth.
var latencyGaps = []uint64{8192, 1024, 512}

// LatencyGrid builds the latency figure's sweep: the KV scenario under
// uniform, Poisson and bursty arrivals at each gap. Every arrival seed
// derives from the base seed and the row coordinates, so rows never
// share a stream yet the grid is a pure function of seed.
func LatencyGrid(short bool, seed uint64) []LatencySweep {
	spec := scenario.DefaultKV(short)
	var sweeps []LatencySweep
	for ki, kind := range []string{scenario.ArrivalUniform, scenario.ArrivalPoisson, scenario.ArrivalBursty} {
		for gi, gap := range latencyGaps {
			sweeps = append(sweeps, LatencySweep{
				Row:  fmt.Sprintf("%s-%s-g%d", spec.Name, kind, gap),
				Spec: spec,
				Arr: scenario.Arrival{
					Kind:    kind,
					Seed:    scenario.MixSeed(seed, 0x1a7e, uint64(ki), uint64(gi)),
					MeanGap: gap,
				},
			})
		}
	}
	return sweeps
}

// LatencyCells expands a latency sweep into matrix cells, one per row.
// Like the scenario cells these are simulated quantities with no
// Serial pinning: the figure is byte-identical under any scheduling.
func LatencyCells(figure string, sweeps []LatencySweep, v confllvm.Variant, conf *machine.Config) []Cell {
	var cells []Cell
	for _, sw := range sweeps {
		sw := sw
		cells = append(cells, Cell{
			Figure:   figure,
			Row:      sw.Row,
			Workload: ScenarioWorkload(sw.Spec),
			Variant:  v,
			Conf:     conf,
			Scale:    uint64(sw.Spec.TotalRequests()),
			Custom: func(c *Cell) (*Measurement, error) {
				return RunLatency(sw.Spec, sw.Arr, c.Variant, c.Conf, nil)
			},
		})
	}
	return cells
}
