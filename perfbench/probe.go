package main

import (
	"math/rand"
	"time"
)

// probeRefNS is hostProbe's median time on the reference host (a shared
// 2-vCPU container, Go 1.24). Host-timed end-to-end metrics are scaled by
// probeRefNS / (this run's median probe time).
//
// Why: on a shared host whole runs slow down or speed up by up to 1.8x
// with neighbouring load, the same for every phase, and no amount of
// in-run averaging removes that. A fixed probe that does not touch the
// code under test, timed before every unit, sees the same swings; in ten
// runs the scaling halved the run-to-run spread of compile_ms_p50,
// spec_mips and serve_ns_per_req. A change to the program moves the raw
// times but not the probe, so it shows in full.
const probeRefNS = 27e6

// probeSteps sizes the three parts of the probe.
const (
	probeChaseSteps = 300_000   // dependent loads over a 4 MiB ring
	probeALUSteps   = 1_000_000 // multiply-add chain with a data-dependent branch
	probeAllocs     = 20_000    // small heap objects, walked once
)

type probeNode struct {
	v    uint64
	next *probeNode
}

var probeSink uint64

// newProbeRing builds the probe's pointer-chasing ring: one cycle through
// 2^20 slots in a fixed pseudo-random order.
func newProbeRing() []uint32 {
	const n = 1 << 20
	order := rand.New(rand.NewSource(1)).Perm(n)
	ring := make([]uint32, n)
	for k := range order {
		ring[order[k]] = uint32(order[(k+1)%n])
	}
	return ring
}

// hostProbe runs a fixed mix of cache-missing loads, integer work and
// small allocations, like the interpreter and the compiler, and returns
// its host time in ns.
func hostProbe(ring []uint32) float64 {
	start := time.Now()
	i, h := uint32(0), uint64(1)
	for s := 0; s < probeChaseSteps; s++ {
		i = ring[i]
		h = h*6364136223846793005 + uint64(i)
	}
	for s := 0; s < probeALUSteps; s++ {
		h = h*6364136223846793005 + 1442695040888963407
		if h>>60 == 3 {
			h ^= h >> 7
		}
	}
	var head *probeNode
	for s := 0; s < probeAllocs; s++ {
		head = &probeNode{v: h + uint64(s), next: head}
	}
	for ; head != nil; head = head.next {
		h += head.v
	}
	probeSink += h
	return float64(time.Since(start).Nanoseconds())
}
