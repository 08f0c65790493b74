package scenario

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"testing"
)

// pinnedKVSpec is perfbench's kv-serve stream at seed 1: a zipf mix of
// gets, puts and deletes with 8-96 byte values over 2048 keys.
func pinnedKVSpec() Spec {
	return Spec{
		Name:     "kv-serve",
		Workload: WorkloadKV,
		Seed:     MixSeed(1, 0x6b76),
		Requests: 20000, Multiplier: 1, Clients: 2,
		KeySpace: 2048, Preload: 1024, HitPct: 50,
		GetPct: 70, PutPct: 15, DelPct: 15,
		ValueMin: 8, ValueMax: 96,
		Skew: SkewZipf,
	}
}

// wireDigest hashes a wire trace: each packet's length (8 bytes, little
// endian) and then its bytes.
func wireDigest(wire [][]byte) string {
	h := sha256.New()
	var n [8]byte
	for _, pkt := range wire {
		binary.LittleEndian.PutUint64(n[:], uint64(len(pkt)))
		h.Write(n[:])
		h.Write(pkt)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestKVTrafficDigestPinned pins the bytes and the predicted outputs of
// a fixed KV stream, so a change to how the generator builds packets
// cannot change what it builds.
func TestKVTrafficDigestPinned(t *testing.T) {
	wire, expect, err := Traffic(pinnedKVSpec())
	if err != nil {
		t.Fatal(err)
	}
	const wantDigest = "375aed6cbd39014b23c13de10fca35aaa4e70e4f83d3bf14ba7f72dcdc68dc06"
	wantExpect := []int64{41024, 14122, 13901, 6993, 5993, 0}
	if got := wireDigest(wire); got != wantDigest {
		t.Errorf("wire digest %s over %d packets, want %s", got, len(wire), wantDigest)
	}
	if !slices.Equal(expect, wantExpect) {
		t.Errorf("expect %v, want %v", expect, wantExpect)
	}
}

// BenchmarkKVTraffic times generating the pinned KV stream, the traffic
// half of perfbench's kv-serve set-up.
func BenchmarkKVTraffic(b *testing.B) {
	b.ReportAllocs()
	for range b.N {
		if _, _, err := Traffic(pinnedKVSpec()); err != nil {
			b.Fatal(err)
		}
	}
}
