// Package scenario is the traffic engine that sits between the bench
// workloads and the parallel matrix: it turns a declarative Spec (request
// mix, key-space size, hit/miss ratio, value-size distribution, request
// multiplier, client count) into a concrete, fully deterministic request
// stream — the wire packets a workload program consumes through the
// trusted runtime's recv — plus the exact scalar outputs the program must
// produce when it serves that stream.
//
// Determinism is the contract the whole bench story rests on: the same
// Spec (including Seed) always yields byte-identical wire packets and the
// same expected outputs, on any host, under any matrix scheduling. The
// generator therefore draws from internal/rng's splitmix64 streams (one
// per simulated client, derived from Spec.Seed) and never touches
// math/rand, time, or any global state. Distinct seeds yield distinct
// streams.
//
// The engine also predicts the workload's observable outcome: while
// emitting requests it simulates the server's state (which keys are
// present, which handshakes resume), so Traffic returns the expected
// output vector alongside the packets and the bench harness can check the
// run end to end, not just fault-freedom.
package scenario

import (
	"fmt"

	"confllvm/internal/rng"
)

// Workload family names understood by Traffic.
const (
	// WorkloadKV is the confidential key-value store: private-partition
	// values, public wire buffers, get/put/delete/scan over T's handlers.
	WorkloadKV = "kv"
	// WorkloadTLSH is the TLS-ish handshake: nonce exchange, key-schedule
	// mixing in private memory, transcript hash on the public side.
	WorkloadTLSH = "tlsh"
	// WorkloadMerkleFS is the confidential merkle block store: private
	// block contents, public per-block integrity hashes over the wire
	// ciphertext, read/write over T's handlers.
	WorkloadMerkleFS = "merklefs"
)

// Client key-popularity distributions understood by the KV-family
// generators. The empty string means SkewUniform.
const (
	// SkewUniform draws keys uniformly from the key space (the default;
	// byte-identical to the pre-skew streams).
	SkewUniform = "uniform"
	// SkewZipf is a zipf-like power law: a geometric level (counting
	// trailing zero bits of one splitmix64 draw, integer-only — never
	// floats, so streams cannot drift across hosts) halves the candidate
	// prefix, concentrating traffic on low keys.
	SkewZipf = "zipf"
	// SkewHot sends hotTrafficPct percent of draws to the first
	// hotSetSize keys and the rest uniform — the cache-adversarial
	// hot-key shape.
	SkewHot = "hot"
)

const (
	// hotSetSize is the number of distinct keys in the SkewHot hot set
	// (the lowest keys of the space).
	hotSetSize = 8
	// hotTrafficPct is the share of SkewHot draws aimed at the hot set.
	hotTrafficPct = 90
	// zipfMaxLevel caps the geometric level of SkewZipf draws so the
	// candidate prefix never collapses below a single key.
	zipfMaxLevel = 16
)

// MaxValueLen is the largest value a KV request may carry; it must match
// the MAXV capacity of the miniC store's private value buffers.
const MaxValueLen = 128

// Spec declares one traffic scenario. The zero value of most fields is
// normalized to a sensible default (see normalized); Name, Workload and
// Seed are the caller's responsibility.
type Spec struct {
	// Name labels the scenario in tables, test names and JSON rows.
	Name string
	// Workload selects the family: WorkloadKV or WorkloadTLSH.
	Workload string
	// Seed drives every random choice. Same seed, same stream — always.
	Seed uint64
	// Requests is the base request count per client.
	Requests int
	// Multiplier scales the request count (the 1x/10x/100x sweeps).
	Multiplier int
	// Clients is the number of interleaved client streams. Each client
	// has its own derived RNG; requests are interleaved round-robin, so
	// the client count changes the stream deterministically.
	Clients int

	// KeySpace is the KV key universe [0, KeySpace). Miss traffic draws
	// keys that are absent by construction but congruent mod KVBuckets
	// with the present range, so misses still walk hash chains.
	KeySpace uint64
	// Preload emits this many puts of distinct keys before the measured
	// mix, so hit targeting is meaningful from the first request.
	Preload int
	// HitPct targets the hit ratio: for KV it is the percent of gets
	// aimed at present keys; for TLSH it is the session-resumption rate.
	HitPct int
	// GetPct/PutPct/DelPct is the KV op mix in percent; the remainder is
	// scans.
	GetPct, PutPct, DelPct int
	// ValueMin/ValueMax bound the KV value-size distribution (bytes).
	ValueMin, ValueMax int
	// ScanSpan is the key width of one scan request.
	ScanSpan uint64

	// Skew selects the key-popularity distribution for the KV-family
	// generators: SkewUniform (also the "" default), SkewZipf or SkewHot.
	// Uniform consumes exactly one RNG draw per key, so the default
	// streams are byte-identical to the pre-skew engine.
	Skew string
	// Shards is the simulated cluster width consumed by Cluster: the
	// router partitions the key space into Shards contiguous blocks, one
	// per machine. 0 and 1 both mean a single machine; Traffic ignores
	// the field entirely (a spec's single-machine stream never depends on
	// how a cluster would split it).
	Shards int
}

// normalized fills defaulted fields and clamps the ones with hard limits.
func (s Spec) normalized() Spec {
	if s.Requests < 0 {
		s.Requests = 0
	}
	if s.Multiplier < 1 {
		s.Multiplier = 1
	}
	if s.Clients < 1 {
		s.Clients = 1
	}
	if s.HitPct < 0 {
		s.HitPct = 0
	}
	if s.HitPct > 100 {
		s.HitPct = 100
	}
	if s.Skew == "" {
		s.Skew = SkewUniform
	}
	if s.Shards < 1 {
		s.Shards = 1
	}
	if s.Workload == WorkloadMerkleFS {
		if s.KeySpace == 0 || s.KeySpace > MFSBlocks {
			s.KeySpace = MFSBlocks
		}
		if s.ValueMin <= 0 {
			s.ValueMin = 8
		}
		if s.ValueMax < s.ValueMin {
			s.ValueMax = s.ValueMin
		}
		if s.ValueMax > MFSMaxBlock {
			s.ValueMax = MFSMaxBlock
		}
		if s.Preload < 0 {
			s.Preload = 0
		}
		// Preload probes linearly for unwritten blocks, same discipline
		// as the KV preload.
		if s.Preload > int(s.KeySpace)/2 {
			s.Preload = int(s.KeySpace) / 2
		}
		if s.PutPct < 0 || s.PutPct > 100 {
			s.PutPct = 30
		}
	}
	if s.Workload == WorkloadKV {
		if s.KeySpace == 0 {
			s.KeySpace = 256
		}
		if s.ValueMin <= 0 {
			s.ValueMin = 8
		}
		if s.ValueMax < s.ValueMin {
			s.ValueMax = s.ValueMin
		}
		if s.ValueMax > MaxValueLen {
			s.ValueMax = MaxValueLen
		}
		if s.ScanSpan == 0 {
			s.ScanSpan = 8
		}
		if s.Preload < 0 {
			s.Preload = 0
		}
		// Preload probes linearly for absent keys; keep it under half the
		// key space so it always terminates quickly.
		if s.Preload > int(s.KeySpace)/2 {
			s.Preload = int(s.KeySpace) / 2
		}
		if s.GetPct < 0 {
			s.GetPct = 0
		}
		if s.PutPct < 0 {
			s.PutPct = 0
		}
		if s.DelPct < 0 {
			s.DelPct = 0
		}
		if s.GetPct+s.PutPct+s.DelPct > 100 {
			// Degenerate mixes fall back to the default.
			s.GetPct, s.PutPct, s.DelPct = 60, 25, 5
		}
	}
	return s
}

// TotalRequests is the number of wire requests the scenario emits — the
// req/s scale of its table cells.
func (s Spec) TotalRequests() int {
	s = s.normalized()
	n := s.Requests * s.Multiplier * s.Clients
	if s.Workload == WorkloadKV || s.Workload == WorkloadMerkleFS {
		n += s.Preload
	}
	return n
}

// Traffic generates the scenario's request stream: the wire packets (in
// send order) and the expected output vector of the serving program. Both
// are pure functions of the Spec.
//
// Expected-output layout:
//
//	WorkloadKV:       [processed, getHits, getMisses, puts, delHits, scanHits]
//	WorkloadTLSH:     [done, fullHandshakes, resumedHandshakes, transcript]
//	WorkloadMerkleFS: [processed, writes, readHits, readMisses, rootAcc, readAcc]
func Traffic(s Spec) (wire [][]byte, expect []int64, err error) {
	if err := s.validSkew(); err != nil {
		return nil, nil, err
	}
	switch s.Workload {
	case WorkloadKV:
		wire, expect = kvTraffic(s.normalized())
		return wire, expect, nil
	case WorkloadTLSH:
		wire, expect = tlshTraffic(s.normalized())
		return wire, expect, nil
	case WorkloadMerkleFS:
		wire, expect = mfsTraffic(s.normalized())
		return wire, expect, nil
	default:
		return nil, nil, fmt.Errorf("scenario: unknown workload family %q (want %q, %q or %q)",
			s.Workload, WorkloadKV, WorkloadTLSH, WorkloadMerkleFS)
	}
}

// validSkew rejects unknown skew names before any stream is emitted: a
// typo silently falling back to uniform would quietly change what a grid
// cell measures.
func (s Spec) validSkew() error {
	switch s.Skew {
	case "", SkewUniform, SkewZipf, SkewHot:
		return nil
	}
	return fmt.Errorf("scenario: unknown key skew %q (want %q, %q or %q)",
		s.Skew, SkewUniform, SkewZipf, SkewHot)
}

// drawKey draws one key from [0, KeySpace) under the spec's skew. The
// uniform path consumes exactly one RNG value — the same draw the
// pre-skew engine made — so Skew's zero value leaves every existing
// stream byte-identical.
func (s Spec) drawKey(r *rng.Stream) uint64 {
	switch s.Skew {
	case SkewZipf:
		l := trailingZeros(r.Next())
		if l > zipfMaxLevel {
			l = zipfMaxLevel
		}
		space := s.KeySpace >> uint(l)
		if space == 0 {
			space = 1
		}
		return r.Intn(space)
	case SkewHot:
		hot := uint64(hotSetSize)
		if hot > s.KeySpace {
			hot = s.KeySpace
		}
		if r.Intn(100) < hotTrafficPct {
			return r.Intn(hot)
		}
		return r.Intn(s.KeySpace)
	default:
		return r.Intn(s.KeySpace)
	}
}

// trailingZeros counts trailing zero bits (64 for zero) without pulling
// math/bits into the stream definition — the loop is the spec.
func trailingZeros(v uint64) int {
	if v == 0 {
		return 64
	}
	n := 0
	for v&1 == 0 {
		v >>= 1
		n++
	}
	return n
}

// clientRNGs builds one derived stream per simulated client.
func clientRNGs(s Spec) []*rng.Stream {
	rs := make([]*rng.Stream, s.Clients)
	for i := range rs {
		rs[i] = rng.New(rng.Mix(s.Seed, 1, uint64(i)))
	}
	return rs
}
