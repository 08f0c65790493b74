package scenario

import "confllvm/internal/trt"

// TLS-ish wire protocol: one client-hello per handshake.
//
//	[type][32-byte client nonce][32-byte encrypted pre-secret]
//
// type is an 8-byte LE word: 1 = full handshake, 2 = resumption (the
// server runs a shortened key schedule). The nonce is public; the
// pre-secret crosses the wire encrypted and is decrypted by T straight
// into private memory.
const (
	HelloFull   uint64 = 1
	HelloResume uint64 = 2
	// NonceLen is the client/server nonce and pre-secret length.
	NonceLen = 32
)

// tlshTranscript mirrors the server's public-side transcript hash for one
// hello: the same wrapping int64 arithmetic the miniC program performs, so
// the generator predicts the final transcript accumulator exactly.
func tlshTranscript(acc int64, typ uint64, nonce []byte) int64 {
	h := int64(typ)*16777619 + 2166136261
	for _, b := range nonce {
		h = h*1099511628211 + int64(b)
	}
	return acc*7 + h
}

// tlshTraffic generates the handshake scenario: Requests*Multiplier
// hellos per client, each a resumption with probability HitPct. The
// returned expect vector is [done, full, resumed, transcript].
func tlshTraffic(s Spec) ([][]byte, []int64) {
	var wire [][]byte
	var done, full, resumed int64
	var transcript int64

	rngs := clientRNGs(s)
	total := s.Requests * s.Multiplier * s.Clients
	for n := 0; n < total; n++ {
		r := rngs[n%s.Clients]
		typ := HelloFull
		if int(r.Intn(100)) < s.HitPct {
			typ = HelloResume
		}
		nonce := make([]byte, NonceLen)
		for i := range nonce {
			nonce[i] = byte(r.Next())
		}
		secret := make([]byte, NonceLen)
		for i := range secret {
			secret[i] = byte(r.Next())
		}
		pkt := make([]byte, 8+NonceLen+NonceLen)
		le(pkt, 0, typ)
		copy(pkt[8:], nonce)
		copy(pkt[8+NonceLen:], trt.EncryptWithDefaultKey(secret))
		wire = append(wire, pkt)

		transcript = tlshTranscript(transcript, typ, nonce)
		if typ == HelloResume {
			resumed++
		} else {
			full++
		}
		done++
	}
	return wire, []int64{done, full, resumed, transcript}
}
