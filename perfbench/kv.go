package main

import (
	"fmt"
	"reflect"
	"slices"

	"confllvm"
	"confllvm/internal/bench"
	"confllvm/internal/machine"
	"confllvm/internal/scenario"
	"confllvm/internal/verify"
)

// kvRequestsPerClient sizes one kv-serve stream: two clients plus the
// preload give ~41k requests per replay.
const kvRequestsPerClient = 20000

// Open-loop arrival settings of the kv-serve latency metrics, in simulated
// cycles. A steady-state request costs ~300 cycles, so the light and heavy
// gaps offer ~10% and ~77% of the service rate; the heavy rate sits just
// below the knee where p99 starts to climb steeply.
const (
	kvLightGap = 3000
	kvHeavyGap = 390
	// kvSLOCycles is the p99 latency limit of sim_max_rps_at_slo (2 µs at
	// the 2 GHz simulated clock).
	kvSLOCycles = 4000
)

// kvArrivalStreams is the number of independent arrival streams pooled
// per rate, so the p99 reflects the service times more than one stream's
// arrival bursts.
const kvArrivalStreams = 8

// kvGapLadder is the fixed ladder of mean arrival gaps searched by
// sim_max_rps_at_slo: coarse at light load, ~3% steps around the knee.
var kvGapLadder = []uint64{
	3000, 2000, 1500, 1200, 1000, 900, 800, 720, 660, 600, 560, 520,
	490, 460, 440, 420, 400, 390, 378, 367, 357, 346, 336, 326, 316,
}

// kvSpec is the kv-serve traffic: the confidential KV store with zipf key
// popularity over 2048 keys, so the resident store (~1,000 entries of a
// 32-byte header and a 128-byte private value) exceeds the 32 KB modeled
// L1. Puts and deletes balance so the store size stays level. The mix has
// no scans: a scan costs ~20x a get, and such rare spikes make the queueing
// p99 at a fixed rate swing by tens of percent from one seed to the next.
func kvSpec(seed uint64) scenario.Spec {
	return scenario.Spec{
		Name:     "kv-serve",
		Workload: scenario.WorkloadKV,
		Seed:     scenario.MixSeed(seed, 0x6b76),
		Requests: kvRequestsPerClient, Multiplier: 1, Clients: 2,
		KeySpace: 2048, Preload: 1024, HitPct: 50,
		GetPct: 70, PutPct: 15, DelPct: 15, // no scans
		ValueMin: 8, ValueMax: 96,
		Skew: scenario.SkewZipf,
	}
}

// kvPhase is the kv-serve stream and its compiled server (OurMPX).
type kvPhase struct {
	art       *confllvm.Artifact
	wire      [][]byte
	expect    []int64
	wireBytes int

	preload int // leading preload puts, excluded from the serving metrics

	// The first replay's outcome; every later replay must repeat it.
	ref     *machine.Stats
	refRecv []uint64
}

// newKVPhase generates the traffic (inside a "scenario" span when traced)
// and compiles the server through the verify gate.
func newKVPhase(seed uint64, linkSeed int64, parallel int, tr *Tracer) (*kvPhase, error) {
	var s, op int32
	if tr != nil {
		op = tr.NewOp()
		s = tr.Begin("scenario", -1, op, true)
	}
	wire, expect, err := scenario.Traffic(kvSpec(seed))
	if tr != nil {
		tr.End(s)
	}
	if err != nil {
		return nil, err
	}
	k := &kvPhase{wire: wire, expect: expect, preload: kvSpec(seed).Preload}
	for _, p := range wire {
		k.wireBytes += len(p)
	}
	wl := bench.KVWorkload(kvSpec(seed))
	prog := wl.Prog(confllvm.VariantMPX)
	prog.Seed = linkSeed
	k.art, err = confllvm.Compile(prog, confllvm.VariantMPX)
	if err != nil {
		return nil, fmt.Errorf("kv: compile: %w", err)
	}
	if _, err := confllvm.VerifyArtifact(k.art, verify.Options{Parallel: parallel}); err != nil {
		return nil, fmt.Errorf("kv: verify gate: %w", err)
	}
	return k, nil
}

// serve replays the whole stream once and checks the outcome: the output
// counters equal the generator's prediction, every packet is received, and
// the run repeats the first replay exactly. sim, when non-nil, receives
// every trusted call's simulated cost.
func (k *kvPhase) serve(tr *Tracer, sim handlerSim) (int64, error) {
	w := confllvm.NewWorld()
	w.Params = []int64{int64(len(k.wire))}
	w.NetIn = k.wire
	recv := make([]uint64, 0, len(k.wire))
	w.Observe = func(name string, start, end uint64) {
		if name == "recv" {
			recv = append(recv, start)
		}
		if sim != nil {
			sim.observe(name, start, end)
		}
	}
	res, ns, err := execute(k.art, w, tr, "kv")
	if err != nil {
		return 0, fmt.Errorf("kv: %w", err)
	}
	if res.Fault != nil {
		return ns, fmt.Errorf("kv: fault: %v", res.Fault)
	}
	if !reflect.DeepEqual(res.Outputs, k.expect) {
		return ns, fmt.Errorf("kv: outputs %v, generator predicted %v", res.Outputs, k.expect)
	}
	if len(recv) != len(k.wire) {
		return ns, fmt.Errorf("kv: %d recv calls for %d packets", len(recv), len(k.wire))
	}
	if len(res.Machine.Threads) != 1 {
		return ns, fmt.Errorf("kv: the queue model needs one serving thread, got %d", len(res.Machine.Threads))
	}
	if k.ref == nil {
		k.ref, k.refRecv = &res.Stats, recv
	} else if res.Stats.Arch() != k.ref.Arch() || !reflect.DeepEqual(recv, k.refRecv) {
		return ns, fmt.Errorf("kv: replay is not repeatable: stats %+v, first replay %+v",
			res.Stats.Arch(), k.ref.Arch())
	}
	return ns, nil
}

// kvSim holds the simulated serving metrics of the reference replay.
type kvSim struct {
	cyclesPerReq       float64
	p99Light, p99Heavy uint64
	maxRPS             float64 // 0 when no ladder gap meets the SLO
	maxRPSGap          uint64
}

// simulate derives the serving metrics from the reference replay's
// steady state (the requests after the preload puts): request i's service
// time is the cycle distance between consecutive recv dispatches (the last
// request runs to the thread's final cycle). Each arrival rate replays the
// service times through a FIFO queue under kvArrivalStreams seeded Poisson
// arrival streams and takes the p99 of the pooled latencies.
func (k *kvPhase) simulate(seed uint64) (kvSim, error) {
	recv := k.refRecv[k.preload:]
	n := len(recv)
	svc := make([]uint64, n)
	for i := 0; i < n-1; i++ {
		svc[i] = recv[i+1] - recv[i]
	}
	svc[n-1] = k.ref.Cycles - recv[n-1]
	out := kvSim{cyclesPerReq: float64(k.ref.Cycles-recv[0]) / float64(n)}

	lat := make([]uint64, 0, n*kvArrivalStreams)
	replay := func(tag, gap uint64) (uint64, bool, error) {
		lat = lat[:0]
		growing := false
		for a := uint64(0); a < kvArrivalStreams; a++ {
			arr, err := scenario.Arrival{Kind: scenario.ArrivalPoisson,
				Seed: scenario.MixSeed(seed, 0xa77, tag, a), MeanGap: gap}.Times(n)
			if err != nil {
				return 0, false, err
			}
			var g bool
			lat, g = queueReplay(svc, arr, lat)
			growing = growing || g
		}
		slices.Sort(lat)
		return lat[(99*len(lat)+99)/100-1], growing, nil
	}
	var err error
	if out.p99Light, _, err = replay(0, kvLightGap); err != nil {
		return out, err
	}
	if out.p99Heavy, _, err = replay(1, kvHeavyGap); err != nil {
		return out, err
	}
	for i, gap := range kvGapLadder {
		p99, growing, err := replay(uint64(2+i), gap)
		if err != nil {
			return out, err
		}
		if p99 <= kvSLOCycles && !growing {
			out.maxRPS, out.maxRPSGap = float64(bench.SimClockHz)/float64(gap), gap
		}
	}
	return out, nil
}

// queueReplay pushes service times through a FIFO single server fed by the
// arrival timestamps and appends each request's latency (queueing plus
// service) to lat. growing reports a growing backlog: the queue depth at
// the last arrival exceeds the peak depth over the first half.
func queueReplay(svc, arrivals, lat []uint64) (_ []uint64, growing bool) {
	n := len(svc)
	done := make([]uint64, n)
	var prevDone, peakFirstHalf, depth uint64
	dp := 0
	for i, a := range arrivals {
		s := max(a, prevDone)
		done[i] = s + svc[i]
		prevDone = done[i]
		lat = append(lat, done[i]-a)
		// Depth at the arrival instant, counting the arriver: earlier
		// arrivals not yet done (done is nondecreasing under FIFO).
		for dp < i && done[dp] <= a {
			dp++
		}
		depth = uint64(i - dp + 1)
		if i < n/2 && depth > peakFirstHalf {
			peakFirstHalf = depth
		}
	}
	return lat, depth > peakFirstHalf
}
