package bench

import (
	"fmt"

	"confllvm"
	"confllvm/internal/chaos"
	"confllvm/internal/machine"
	"confllvm/internal/obs"
)

// The supervisor's recovery discipline. Every quantity is simulated
// (cycles, requests).
const (
	// maxRestarts bounds *consecutive fruitless* restarts — epochs that
	// fault before consuming a single request. Once exhausted, the
	// remaining queue is rejected (a persistent crash loop, not a stream
	// of per-request faults, is what makes a supervisor give up).
	maxRestarts = 8
	// maxReplays bounds how often one request may be replayed after
	// transient faults before it is rejected as a poison pill. Together
	// with maxRestarts this makes termination unconditional: every epoch
	// either serves requests, burns a replay, or extends a bounded
	// streak.
	maxReplays = 3
	// backoffBase is the simulated-cycle pause before a restart; each
	// consecutive fruitless restart doubles it, capped at backoffCap, and
	// any progress resets it to the base.
	backoffBase uint64 = 1_000_000  // 0.5 ms at SimClockHz
	backoffCap  uint64 = 16_000_000 // 8 ms
	// queueDepth bounds the request queue during a backoff pause:
	// arrivals beyond it are shed (graceful degradation, not collapse).
	queueDepth = 32
	// arrivalEveryCycles models the client arrival rate during backoff —
	// one request per this many simulated cycles. A minimum-length
	// (1M-cycle) backoff brings 20 arrivals — absorbed by the 32-deep
	// queue — but an escalated (2M+) backoff brings 40+, so crash loops
	// shed while isolated restarts do not. The bounded queue is exercised
	// by the figure, not just available in principle.
	arrivalEveryCycles uint64 = 50_000
	// batchRequests caps the requests served per machine epoch (planned
	// recycling, crash-only style): smaller batches bound the blast
	// radius of one fault and give the per-epoch fault mechanisms more
	// injection points.
	batchRequests = 4
)

// FaultPolicy configures a supervised serving run: the fault schedule
// and an optional trace. With the fixed recovery discipline above, a
// policy plus a wire trace fully determines the ServeReport, bit for
// bit, on any host, under any scheduling, in any dispatch mode.
type FaultPolicy struct {
	Injector chaos.Injector
	// Trace, when non-nil, receives one span tree per epoch on the
	// supervisor's simulated clock (RunCycles + BackoffCycles): an
	// "epoch" root spanning the whole lifecycle with a "run" child (the
	// machine execution, labeled "run:<fault kind>" when it faulted) and
	// a "backoff" child for the restart pause. Purely observational —
	// the ServeReport is bit-identical with or without it.
	Trace *obs.Tracer
}

// DefaultFaultPolicy is the faults figure's policy: one knob (the fault
// rate) on top of the fixed recovery discipline.
func DefaultFaultPolicy(seed, ratePermille uint64) FaultPolicy {
	in := chaos.NewInjector(seed, ratePermille)
	// One absolute fuel window must make sense for every workload in the
	// sweep: drawn uniformly from it, a budget almost always truncates a
	// long epoch (the TLS-ish handshake burns ~30k instructions per
	// request) and only rarely a cheap one (a KV batch runs in a few
	// thousand), so fuel exhaustion is the handshake's main fault source
	// while the KV store's is wire corruption.
	in.FuelMin, in.FuelMax = 2_000, 200_000
	return FaultPolicy{Injector: in}
}

// ServeReport is the outcome of one supervised serving run. All fields
// are simulated quantities.
type ServeReport struct {
	Total    int // requests offered
	Served   int // requests completed by the server
	Rejected int // poisoned requests refused + remainder after give-up
	Shed     int // requests dropped by the bounded queue during backoff

	Restarts         int // machine teardown/restart cycles
	Epochs           int // machine runs (restarts + the final clean run)
	VerifyRejections int // tampered images refused by the load gate

	RunCycles     uint64 // simulated cycles spent executing
	BackoffCycles uint64 // simulated cycles spent in restart pauses
	Instrs        uint64 // simulated instructions executed

	// Recoveries holds each restart's recovery latency in simulated
	// cycles (the fault-to-serving-again pause).
	Recoveries []uint64
}

// AvailabilityPct is the percentage of offered requests served.
func (r *ServeReport) AvailabilityPct() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Served) / float64(r.Total) * 100
}

// ServedPerSec converts served requests over total simulated time
// (execution + backoff) into req/s at SimClockHz.
func (r *ServeReport) ServedPerSec() uint64 {
	return ReqsPerSec(uint64(r.Served), r.RunCycles+r.BackoffCycles)
}

// RecoveryMean returns the mean restart latency in simulated cycles
// (0 with no restarts).
func (r *ServeReport) RecoveryMean() uint64 {
	if len(r.Recoveries) == 0 {
		return 0
	}
	var sum uint64
	for _, c := range r.Recoveries {
		sum += c
	}
	return sum / uint64(len(r.Recoveries))
}

// RecoveryMax returns the largest restart latency in simulated cycles.
func (r *ServeReport) RecoveryMax() uint64 {
	var max uint64
	for _, c := range r.Recoveries {
		if c > max {
			max = c
		}
	}
	return max
}

// pending is one queued request: its packet plus its absolute index in
// the original trace (wire-corruption decisions key on the absolute
// index, so a request keeps its fault fate across replays) and its
// replay count.
type pending struct {
	idx   uint64
	pkt   []byte
	tries int
}

// Supervise serves a wire trace through supervised machine lifecycles:
// the request queue is fed to a freshly prepared machine; when the
// machine faults, the supervisor tears it down, waits out an exponential
// backoff (in simulated cycles), sheds queue overflow, and restarts with
// the unserved remainder. The in-flight request is replayed after
// transient faults (code corruption, fuel exhaustion) but rejected after
// a trusted-runtime refusal (FaultTrusted means the request itself is
// poisoned — replaying it would fault forever). Every epoch the injector
// may also present a tampered image to the verify-before-load gate; the
// gate must reject it (an acceptance failure otherwise), and serving
// continues with the pristine verified artifact.
//
// The server program must follow the scenario serving convention:
// Params[0] = request count, one recv per request.
func Supervise(key string, prog confllvm.Program, v confllvm.Variant,
	wire [][]byte, mconf *machine.Config, pol FaultPolicy) (*ServeReport, error) {

	art, err := CompileCached(key, v, prog)
	if err != nil {
		return nil, err
	}
	in := pol.Injector

	// Corrupt the wire up front: the schedule keys on absolute request
	// indices, so it is fixed before any epoch runs.
	queue := make([]pending, len(wire))
	for i, pkt := range wire {
		p := pending{idx: uint64(i), pkt: pkt}
		if in.CorruptWire(uint64(i)) {
			p.pkt = in.CorruptPacket(uint64(i), pkt)
		}
		queue[i] = p
	}

	rep := &ServeReport{Total: len(wire)}
	baseConf := machine.DefaultConfig()
	if mconf != nil {
		baseConf = *mconf
	}

	// streak counts consecutive fruitless restarts (no request consumed);
	// progress resets it, so backoff escalation and the give-up bound
	// target crash loops, not ordinary per-request faults.
	streak := 0
	for epoch := uint64(0); len(queue) > 0; epoch++ {
		rep.Epochs++
		// The supervisor's simulated clock: execution plus backoff so
		// far. Epoch spans are emitted against it once the epoch's
		// extent is known (parents precede children in a trace).
		c0 := rep.RunCycles + rep.BackoffCycles

		// Verify-before-load gate: a tampered build artifact must never
		// reach the loader. One load per epoch, so one roll per epoch.
		if in.Tamper(epoch) {
			tampered := chaos.TamperImage(in.Seed, epoch, art.Image)
			if tampered != nil {
				if _, verr := gateVerify(tampered, art.Strict); verr != nil {
					rep.VerifyRejections++
				} else {
					return nil, fmt.Errorf("%s [%v]: tampered image passed the verify gate", key, v)
				}
			}
		}

		// One epoch serves a bounded batch off the head of the queue.
		batch := min(len(queue), batchRequests)

		// Code and fuel bombs roll once per request slot, not per epoch:
		// fault exposure then scales with offered load, independent of
		// batchRequests. The first fuel hit in the batch sets the
		// epoch's budget (one machine, one budget).
		mc := baseConf
		for j := 0; j < batch; j++ {
			if slot := epoch*chaos.EpochStride + uint64(j); in.FuelBomb(slot) {
				mc.DefaultFuel = in.FuelBudget(slot)
				break
			}
		}

		w := confllvm.NewWorld()
		w.Params = []int64{int64(batch)}
		w.NetIn = make([][]byte, batch)
		for i, p := range queue[:batch] {
			w.NetIn[i] = p.pkt
		}

		prep, err := confllvm.Prepare(art, w, &mc)
		if err != nil {
			return nil, fmt.Errorf("%s [%v]: prepare: %w", key, v, err)
		}
		for j := 0; j < batch; j++ {
			slot := epoch*chaos.EpochStride + uint64(j)
			if !in.CodeBomb(slot) {
				continue
			}
			// Post-load corruption: by design this bypasses the verify
			// gate (which checks bits at load time); the machine's own
			// decode/CFI checks catch it at execution time instead.
			if addr, ok := in.CodeBombSite(slot, art.Image); ok {
				if f := prep.Machine().Mem.WriteBytesUnchecked(addr, []byte{chaos.InvalidOpcode}); f != nil {
					return nil, fmt.Errorf("%s [%v]: code bomb write: %v", key, v, f)
				}
			}
		}
		res := prep.Finish()
		rep.RunCycles += res.WallCycles
		rep.Instrs += res.Stats.Instrs
		runEnd := c0 + res.WallCycles

		if res.Fault == nil {
			if tr := pol.Trace; tr != nil {
				ep := tr.Span("epoch", 0, c0, runEnd)
				tr.Span("run", ep, c0, runEnd)
			}
			rep.Served += batch
			queue = queue[batch:]
			continue
		}

		// The server pops one NetIn packet per request: the consumed
		// count locates the in-flight request (simulated quantities on
		// both sides, so this is dispatch-mode-invariant).
		consumed := batch - len(res.TCtx.NetIn)
		if consumed > 0 {
			streak = 0
			rep.Served += consumed - 1
			inflight := queue[consumed-1]
			queue = queue[consumed:]
			// Replay only environment-injected faults: decode faults come
			// from planted code corruption (verified code cannot produce
			// them) and fuel faults from the watchdog — both gone after a
			// restart. Every other kind is the instrumentation convicting
			// the request itself (the trusted runtime refusing a poisoned
			// payload, MPX/CFI tripped by adversarial input), so replaying
			// it would fault identically forever; reject it. maxReplays
			// additionally caps replays, so even a misclassified poison
			// pill cannot wedge the supervisor.
			transient := res.Fault.Kind == machine.FaultDecode ||
				res.Fault.Kind == machine.FaultFuel
			inflight.tries++
			if transient && inflight.tries <= maxReplays {
				queue = append([]pending{inflight}, queue...)
			} else {
				rep.Rejected++
			}
		} else {
			streak++
		}

		rep.Restarts++
		if streak > maxRestarts {
			if tr := pol.Trace; tr != nil {
				ep := tr.Span("epoch", 0, c0, runEnd)
				tr.Span("run:"+res.Fault.Kind.String(), ep, c0, runEnd)
			}
			rep.Rejected += len(queue)
			queue = nil
			break
		}

		// Exponential backoff in simulated cycles, escalating with the
		// fruitless streak.
		backoff := backoffBase
		for i := 0; i < streak && backoff < backoffCap; i++ {
			backoff *= 2
		}
		backoff = min(backoff, backoffCap)
		rep.BackoffCycles += backoff
		rep.Recoveries = append(rep.Recoveries, backoff)
		if tr := pol.Trace; tr != nil {
			ep := tr.Span("epoch", 0, c0, runEnd+backoff)
			tr.Span("run:"+res.Fault.Kind.String(), ep, c0, runEnd)
			tr.Span("backoff", ep, runEnd, runEnd+backoff)
		}

		// Bounded queue: of the requests arriving during the pause (the
		// next arrivals in the trace), the queue absorbs queueDepth; the
		// rest find it full and are shed. Requests arriving after the
		// pause are untouched, so shedding never empties the queue below
		// its own capacity — degradation, not collapse.
		arrivals := min(int(backoff/arrivalEveryCycles), len(queue))
		if shed := arrivals - queueDepth; shed > 0 {
			queue = append(queue[:queueDepth:queueDepth], queue[arrivals:]...)
			rep.Shed += shed
		}
	}
	return rep, nil
}
