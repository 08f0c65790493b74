package scenario

import (
	"fmt"

	"confllvm/internal/rng"
)

// Arrival kinds understood by Times.
const (
	// ArrivalPoisson is a memoryless open-loop process: inter-arrival
	// gaps are integer-geometric draws approximating an exponential
	// with mean MeanGap cycles.
	ArrivalPoisson = "poisson"
	// ArrivalBursty gates the Poisson process through a two-state
	// ON/OFF modulator (geometric phase lengths): arrivals only occur
	// in ON phases, producing clumped traffic with the same per-phase
	// memorylessness.
	ArrivalBursty = "bursty"
	// ArrivalUniform spaces arrivals exactly MeanGap cycles apart —
	// the deterministic baseline row of the latency figure.
	ArrivalUniform = "uniform"
)

// Arrival declares one open-loop arrival process in simulated cycles.
// Like Spec, it is integer-only and seed-driven: the same Arrival
// always yields the same timestamps, on any host, under any matrix
// scheduling — the arrival stream is part of the figure's spec, not a
// measurement.
type Arrival struct {
	// Kind selects the process (ArrivalPoisson, ArrivalBursty,
	// ArrivalUniform). Empty means ArrivalPoisson.
	Kind string
	// Seed drives every random choice, independent of the traffic
	// Spec's seed (derive with MixSeed so figures can't alias streams).
	Seed uint64
	// MeanGap is the mean inter-arrival gap in simulated cycles; the
	// offered load is SimClockHz/MeanGap requests per simulated
	// second. 0 is normalized to 65536.
	MeanGap uint64
	// BurstOn/BurstOff are the mean ON/OFF phase lengths in cycles for
	// ArrivalBursty (0 → 8*MeanGap each). Arrivals pause during OFF
	// phases, so the effective load during ON roughly doubles when the
	// duty cycle is 50%.
	BurstOn  uint64
	BurstOff uint64
}

// MixSeed derives an independent stream seed from a base seed plus
// coordinates (grid indices, figure tags) with internal/rng's mixer, the
// one the generator derives its own streams with, so figure grids outside
// this package get the same avalanche guarantees.
func MixSeed(vals ...uint64) uint64 { return rng.Mix(vals...) }

// arrivalTick quantizes geometric draws: gaps are multiples of
// MeanGap/arrivalTicks (min 1 cycle), giving a discrete exponential
// whose mean is within a few percent of MeanGap.
const arrivalTicks = 32

// geometricGap draws one integer-geometric gap with the given mean:
// count Bernoulli(1/arrivalTicks) failures in tick units. Mean of the
// geometric (number of trials to first success) is arrivalTicks ticks
// = ~mean cycles; integer-only, so streams cannot drift across hosts.
func geometricGap(r *rng.Stream, mean uint64) uint64 {
	tick := mean / arrivalTicks
	if tick == 0 {
		tick = 1
	}
	k := uint64(1)
	for r.Intn(arrivalTicks) != 0 {
		k++
	}
	return k * tick
}

// Times returns the first n arrival timestamps (simulated cycles,
// strictly measured from 0, nondecreasing) of the process. Unknown
// kinds return an error so figure configs fail loudly.
func (a Arrival) Times(n int) ([]uint64, error) {
	mean := a.MeanGap
	if mean == 0 {
		mean = 65536
	}
	kind := a.Kind
	if kind == "" {
		kind = ArrivalPoisson
	}
	out := make([]uint64, 0, n)
	var now uint64
	switch kind {
	case ArrivalUniform:
		for i := 0; i < n; i++ {
			now += mean
			out = append(out, now)
		}
	case ArrivalPoisson:
		r := rng.New(rng.Mix(a.Seed, 0xa441))
		for i := 0; i < n; i++ {
			now += geometricGap(r, mean)
			out = append(out, now)
		}
	case ArrivalBursty:
		r := rng.New(rng.Mix(a.Seed, 0xa442))
		phase := rng.New(rng.Mix(a.Seed, 0xa443))
		on, off := a.BurstOn, a.BurstOff
		if on == 0 {
			on = 8 * mean
		}
		if off == 0 {
			off = 8 * mean
		}
		// Walk ON/OFF phases; arrivals drawn during ON only. The
		// phase walk always advances (geometricGap >= 1), so the loop
		// terminates for any parameters.
		phaseEnd := now + geometricGap(phase, on)
		for len(out) < n {
			gap := geometricGap(r, mean)
			for now+gap > phaseEnd {
				// Skip the OFF phase that follows this ON phase; the
				// residual gap carries into the next ON phase.
				gap -= phaseEnd - now
				now = phaseEnd + geometricGap(phase, off)
				phaseEnd = now + geometricGap(phase, on)
			}
			now += gap
			out = append(out, now)
		}
	default:
		return nil, fmt.Errorf("scenario: unknown arrival kind %q", a.Kind)
	}
	return out, nil
}
