package scenario

import (
	"confllvm/internal/rng"
	"confllvm/internal/trt"
)

// MerkleFS wire protocol: every header field is an 8-byte little-endian
// word, so the miniC server parses packets with aligned *(long*) reads.
//
//	WRITE: [op=1][blk][len][len bytes of encrypted block contents]
//	READ:  [op=2][blk]
//
// Block contents travel encrypted and are decrypted by T straight into
// private-partition buffers — cleartext blocks exist only in private
// memory and leave only through ssl_send. The integrity metadata is
// public by design: the server hashes the *ciphertext* it received off
// the wire (public bytes) into a per-block hash and chains those hashes
// into a root accumulator, so the generator — which emitted that exact
// ciphertext — replicates both accumulators bit for bit.
const (
	MFSWrite uint64 = 1 + iota
	MFSRead
)

// MFSBlocks is the block universe of the miniC store (NBLK in
// bench.MerkleFSSrc); specs may use a smaller KeySpace but never more.
const MFSBlocks = 64

// MFSMaxBlock is the largest block payload in bytes; it must match the
// MAXB capacity of the miniC store's private block buffers.
const MFSMaxBlock = 128

// mfsHash mirrors the server's public-side per-block hash: the same
// wrapping int64 arithmetic the miniC program performs over the block
// number and the ciphertext bytes.
func mfsHash(blk uint64, ct []byte) int64 {
	h := int64(blk)*16777619 + 2166136261
	for _, b := range ct {
		h = h*1099511628211 + int64(b)
	}
	return h
}

// mfsTraffic generates the merkle-block-store scenario: Preload writes of
// distinct blocks, then a write/read mix (PutPct writes, remainder reads
// targeting the HitPct written-block ratio), interleaved round-robin
// across the client streams. The returned expect vector is
// [processed, writes, readHits, readMisses, rootAcc, readAcc].
func mfsTraffic(s Spec) ([][]byte, []int64) {
	written := make([]bool, s.KeySpace)
	var order []uint64 // written blocks in first-write order
	var wire [][]byte
	var processed, writes, readhits, readmisses int64
	var root, readAcc int64
	hash := make([]int64, s.KeySpace)

	emitWrite := func(r *rng.Stream, blk uint64) {
		vlen := s.ValueMin + int(r.Intn(uint64(s.ValueMax-s.ValueMin+1)))
		val := make([]byte, vlen)
		for i := range val {
			val[i] = byte(r.Next())
		}
		ct := trt.EncryptWithDefaultKey(val)
		pkt := make([]byte, 24+vlen)
		le(pkt, 0, MFSWrite)
		le(pkt, 8, blk)
		le(pkt, 16, uint64(vlen))
		copy(pkt[24:], ct)
		wire = append(wire, pkt)
		if !written[blk] {
			written[blk] = true
			order = append(order, blk)
		}
		hash[blk] = mfsHash(blk, ct)
		root = root*7 + hash[blk]
		writes++
		processed++
	}
	emitRead := func(blk uint64) {
		pkt := make([]byte, 16)
		le(pkt, 0, MFSRead)
		le(pkt, 8, blk)
		wire = append(wire, pkt)
		if written[blk] {
			readAcc = readAcc*7 + hash[blk]
			readhits++
		} else {
			readmisses++
		}
		processed++
	}

	// Preload: distinct blocks via linear probing (Preload <= KeySpace/2,
	// so the probe always terminates); uniform like the KV fill.
	pr := rng.New(rng.Mix(s.Seed, 2))
	for i := 0; i < s.Preload; i++ {
		blk := pr.Intn(s.KeySpace)
		for written[blk] {
			blk = (blk + 1) % s.KeySpace
		}
		emitWrite(pr, blk)
	}

	rngs := clientRNGs(s)
	total := s.Requests * s.Multiplier * s.Clients
	for n := 0; n < total; n++ {
		r := rngs[n%s.Clients]
		if int(r.Intn(100)) < s.PutPct {
			emitWrite(r, s.drawKey(r))
			continue
		}
		// Target the hit ratio: hits draw from the written set, misses
		// probe for a still-unwritten block. When every block is written
		// a miss is impossible; the draw degrades to a hit.
		if int(r.Intn(100)) < s.HitPct && len(order) > 0 {
			emitRead(order[r.Intn(uint64(len(order)))])
		} else if len(order) < int(s.KeySpace) {
			blk := s.drawKey(r)
			for written[blk] {
				blk = (blk + 1) % s.KeySpace
			}
			emitRead(blk)
		} else if len(order) > 0 {
			emitRead(order[r.Intn(uint64(len(order)))])
		}
	}
	return wire, []int64{processed, writes, readhits, readmisses, root, readAcc}
}
