package scenario

import (
	"encoding/binary"

	"confllvm/internal/rng"
	"confllvm/internal/trt"
)

// KV wire protocol: every field is an 8-byte little-endian word, so the
// miniC server parses packets with aligned *(long*) reads.
//
//	GET:  [op=1][key]
//	PUT:  [op=2][key][len][len bytes of encrypted value]
//	DEL:  [op=3][key]
//	SCAN: [op=4][start][span]
//
// Values travel encrypted (the client encrypts with the session cipher);
// the server decrypts them straight into private-partition buffers, so
// cleartext values exist only in private memory.
const (
	OpGet uint64 = 1 + iota
	OpPut
	OpDel
	OpScan
)

// KVBuckets is the miniC store's hash-table size (NBUCKETS in
// bench.KVStoreSrc). The generator needs it to shape miss traffic: a
// miss key must be absent (outside [0, KeySpace)) yet land in the same
// buckets as present keys, so the server walks a chain before failing.
const KVBuckets = 256

// missKey derives an absent key congruent (mod KVBuckets) with a
// present-range key: base plus the smallest multiple of KVBuckets that
// clears the key space. For KeySpace <= KVBuckets that is base+KVBuckets;
// either way the result is >= KeySpace (never present) and hashes into
// base's bucket.
func missKey(s Spec, base uint64) uint64 {
	step := (s.KeySpace + KVBuckets - 1) / KVBuckets * KVBuckets
	return base + step
}

func le(pkt []byte, off int, v uint64) { binary.LittleEndian.PutUint64(pkt[off:], v) }

// kvArenaChunk is the size of the arenas kvTraffic carves packets from.
const kvArenaChunk = 64 << 10

// kvModel mirrors the server's store: which keys are present. It lets the
// generator target hit ratios and predict the run's outputs exactly.
type kvModel struct {
	index map[uint64]int // key -> position in keys
	keys  []uint64       // present keys, swap-removed on delete
}

func (m *kvModel) put(key uint64) {
	if _, ok := m.index[key]; !ok {
		m.index[key] = len(m.keys)
		m.keys = append(m.keys, key)
	}
}

func (m *kvModel) del(key uint64) bool {
	i, ok := m.index[key]
	if !ok {
		return false
	}
	last := m.keys[len(m.keys)-1]
	m.keys[i] = last
	m.index[last] = i
	m.keys = m.keys[:len(m.keys)-1]
	delete(m.index, key)
	return true
}

// kvTraffic generates the KV scenario: Preload puts of distinct keys,
// then the mixed op stream, interleaved round-robin across the client
// streams. The returned expect vector is
// [processed, getHits, getMisses, puts, delHits, scanHits].
func kvTraffic(s Spec) ([][]byte, []int64) {
	model := &kvModel{index: map[uint64]int{}}
	total := s.Requests * s.Multiplier * s.Clients
	wire := make([][]byte, 0, s.Preload+total)
	var processed, hits, misses, puts, delhits, scanhits int64

	// Packets are carved out of chunked arenas, each capped at its own
	// length so that an append to one never writes into the next. A put
	// value is drawn straight into its packet and enciphered in place.
	var arena []byte
	packet := func(n int) []byte {
		if len(arena) < n {
			arena = make([]byte, max(n, kvArenaChunk))
		}
		pkt := arena[:n:n]
		arena = arena[n:]
		return pkt
	}

	emitPut := func(r *rng.Stream, key uint64) {
		vlen := s.ValueMin + int(r.Intn(uint64(s.ValueMax-s.ValueMin+1)))
		pkt := packet(24 + vlen)
		le(pkt, 0, OpPut)
		le(pkt, 8, key)
		le(pkt, 16, uint64(vlen))
		val := pkt[24:]
		for i := range val {
			val[i] = byte(r.Next())
		}
		trt.EncryptIntoWithDefaultKey(val, val)
		wire = append(wire, pkt)
		model.put(key)
		puts++
		processed++
	}
	emit2 := func(op, a, b uint64) {
		pkt := packet(24)
		le(pkt, 0, op)
		le(pkt, 8, a)
		le(pkt, 16, b)
		wire = append(wire, pkt)
		processed++
	}

	// Preload: distinct keys via linear probing (Preload <= KeySpace/2,
	// so the probe always terminates). The fill is always uniform — skew
	// shapes the measured mix, not the warm store.
	pr := rng.New(rng.Mix(s.Seed, 2))
	for i := 0; i < s.Preload; i++ {
		key := pr.Intn(s.KeySpace)
		for _, ok := model.index[key]; ok; _, ok = model.index[key] {
			key = (key + 1) % s.KeySpace
		}
		emitPut(pr, key)
	}

	rngs := clientRNGs(s)
	for n := 0; n < total; n++ {
		r := rngs[n%s.Clients]
		roll := int(r.Intn(100))
		switch {
		case roll < s.GetPct:
			// Target the hit ratio: hits draw from the present set, misses
			// from missKey — absent by construction but hashing into the
			// same buckets, so misses still walk chains before failing.
			if int(r.Intn(100)) < s.HitPct && len(model.keys) > 0 {
				key := model.keys[r.Intn(uint64(len(model.keys)))]
				emit2(OpGet, key, 0)
				hits++
			} else {
				emit2(OpGet, missKey(s, s.drawKey(r)), 0)
				misses++
			}
		case roll < s.GetPct+s.PutPct:
			emitPut(r, s.drawKey(r))
		case roll < s.GetPct+s.PutPct+s.DelPct:
			if len(model.keys) > 0 {
				key := model.keys[r.Intn(uint64(len(model.keys)))]
				model.del(key)
				emit2(OpDel, key, 0)
				delhits++
			} else {
				emit2(OpDel, missKey(s, s.drawKey(r)), 0)
			}
		default:
			start := s.drawKey(r)
			for k := start; k < start+s.ScanSpan; k++ {
				if _, ok := model.index[k]; ok {
					scanhits++
				}
			}
			emit2(OpScan, start, s.ScanSpan)
		}
	}
	return wire, []int64{processed, hits, misses, puts, delhits, scanhits}
}
