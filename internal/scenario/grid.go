package scenario

import (
	"fmt"

	"confllvm/internal/rng"
)

// DefaultSeed is the base seed used when the caller does not pick one
// (confbench's -seed flag overrides it).
const DefaultSeed uint64 = 7

// DefaultKV is the KV-store parameterization registered in
// bench.Workloads: the mix the differential and fuzz harnesses replay.
// short selects fewer requests over the same code paths.
func DefaultKV(short bool) Spec {
	s := Spec{
		Name:     "kv-default",
		Workload: WorkloadKV,
		Seed:     rng.Mix(DefaultSeed, 0x6b76),
		Requests: 60, Multiplier: 1, Clients: 2,
		KeySpace: 256, Preload: 32, HitPct: 50,
		GetPct: 60, PutPct: 25, DelPct: 5,
		ValueMin: 8, ValueMax: 96, ScanSpan: 8,
	}
	if short {
		s.Requests = 15
		s.KeySpace = 64
		s.Preload = 12
	}
	return s
}

// DefaultTLSH is the TLS-ish handshake parameterization registered in
// bench.Workloads.
func DefaultTLSH(short bool) Spec {
	s := Spec{
		Name:     "tlsh-default",
		Workload: WorkloadTLSH,
		Seed:     rng.Mix(DefaultSeed, 0x7151),
		Requests: 12, Multiplier: 1, Clients: 2,
		HitPct: 50,
	}
	if short {
		s.Requests = 4
	}
	return s
}

// DefaultMerkleFS is the merkle-block-store parameterization registered
// in bench.Workloads: a write/read mix over confidential blocks whose
// public integrity accumulators the generator predicts exactly.
func DefaultMerkleFS(short bool) Spec {
	s := Spec{
		Name:     "merklefs-default",
		Workload: WorkloadMerkleFS,
		Seed:     rng.Mix(DefaultSeed, 0x6d66),
		Requests: 40, Multiplier: 1, Clients: 2,
		KeySpace: 64, Preload: 16, HitPct: 60,
		PutPct: 30, ValueMin: 8, ValueMax: 96,
	}
	if short {
		s.Requests = 12
		s.KeySpace = 32
		s.Preload = 8
	}
	return s
}

// FigureGrid is the -figure scenarios sweep: request-count multipliers
// crossed with hit/resumption ratios for both workload families. The full
// grid covers 1x/10x/100x at hit ratios 0/50/90; short shrinks it to a
// smoke-sized grid with the same shape. Every cell derives its own seed
// from the base seed and its grid coordinates, so cells are independent
// streams but the whole grid is reproducible from one number.
func FigureGrid(short bool, seed uint64) []Spec {
	mults := []int{1, 10, 100}
	ratios := []int{0, 50, 90}
	kvReqs, tlshReqs := 30, 8
	if short {
		mults = []int{1, 4}
		ratios = []int{0, 100}
		kvReqs, tlshReqs = 8, 3
	}
	var specs []Spec
	for _, m := range mults {
		for _, h := range ratios {
			specs = append(specs, Spec{
				Name:     fmt.Sprintf("kv-x%03d-h%02d", m, h),
				Workload: WorkloadKV,
				Seed:     rng.Mix(seed, 0x6b76, uint64(m), uint64(h)),
				Requests: kvReqs, Multiplier: m, Clients: 2,
				KeySpace: 256, Preload: 32, HitPct: h,
				GetPct: 60, PutPct: 25, DelPct: 5,
				ValueMin: 8, ValueMax: 96, ScanSpan: 8,
			})
		}
	}
	for _, m := range mults {
		for _, h := range ratios {
			specs = append(specs, Spec{
				Name:     fmt.Sprintf("tlsh-x%03d-r%02d", m, h),
				Workload: WorkloadTLSH,
				Seed:     rng.Mix(seed, 0x7151, uint64(m), uint64(h)),
				Requests: tlshReqs, Multiplier: m, Clients: 2,
				HitPct: h,
			})
		}
	}
	return specs
}
