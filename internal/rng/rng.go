// Package rng is the repo's one seeded random stream: splitmix64 plus a
// seed mixer. Scenario traffic, arrival processes, fault schedules and
// verifier mutation sites all draw from it. It is a frozen algorithm —
// unlike math/rand, which Go may change between releases — so every
// figure that depends on a seed is reproducible across toolchains.
// TestGolden pins its outputs: a change to the constants re-rolls every
// seeded figure and fails that test.
package rng

// Stream is a splitmix64 stream.
type Stream struct{ s uint64 }

// New starts a stream at seed.
func New(seed uint64) *Stream { return &Stream{s: seed} }

// Next returns the stream's next 64-bit value.
func (r *Stream) Next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n), or 0 when n is 0. The modulo bias is
// irrelevant for traffic shaping and keeps the stream definition trivial.
func (r *Stream) Intn(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return r.Next() % n
}

// Mix derives a child seed from a parent seed and a tag path, so every
// client stream, grid cell and fault mechanism gets an independent
// stream while remaining a pure function of the base seed.
func Mix(vals ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h ^= v
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		h *= 0xc4ceb9fe1a85ec53
		h ^= h >> 29
	}
	return h
}
