// Package chaos is the seeded fault injector behind `confbench -figure
// faults` and the supervisor tests: a deterministic source of adversarial
// perturbations — wire-packet corruption, code-page bit rot, fuel
// exhaustion, and pre-load image tampering — that turns failure into a
// reproducible workload.
//
// Determinism contract: every decision is a pure function of (Seed, tag,
// index). The injector carries no mutable state, so the same seed yields
// the same fault schedule no matter how many times, in which order, or on
// how many goroutines decisions are queried. Randomness comes from the
// frozen splitmix64 stream in internal/rng, never math/rand: Go is free
// to change math/rand between releases, which would silently re-roll
// every nightly figure.
package chaos

import (
	"encoding/binary"

	"confllvm/internal/asm"
	"confllvm/internal/link"
	"confllvm/internal/rng"
)

// Stream tags partition the seed space so each fault mechanism draws from
// an independent stream. Frozen: renumbering re-rolls every figure.
const (
	tagWire        = 1 // per-request wire-corruption coin
	tagWirePayload = 2 // per-request corruption byte positions/values
	tagCode        = 3 // per-slot code-bomb coin
	tagCodeTarget  = 4 // per-slot code-bomb target function
	tagFuel        = 5 // per-slot fuel-bomb coin
	tagFuelBudget  = 6 // per-slot fuel budget
	tagTamper      = 7 // per-epoch image-tamper coin
	tagTamperSite  = 8 // per-epoch tamper target function
)

// EpochStride namespaces the per-slot fault rolls: the j'th request in an
// epoch's batch rolls at slot = epoch*EpochStride + j. Rolling per slot
// rather than per epoch makes fault exposure proportional to offered load
// instead of to the batching knob — a workload served in 6 big epochs sees
// the same expected fault count as one served in 24 small ones. Frozen:
// changing the stride re-rolls every figure. (Batches are bounded well
// below the stride by the supervisor; the constant exists so the slot spaces
// of distinct epochs can never collide.)
const EpochStride = 4096

// Injector decides, deterministically, which faults strike a supervised
// run. Rates are per-mille (0 = never, 1000 = always): wire corruption is
// rolled once per request (by absolute request index, so the schedule is
// independent of how requests are batched into epochs); code and fuel
// bombs are rolled once per request slot (see EpochStride); image
// tampering is rolled once per machine epoch (there is one load per
// epoch, hence one gate check).
type Injector struct {
	Seed uint64
	// WirePermille corrupts a request's packet before it reaches the
	// server (models an on-path attacker / link corruption).
	WirePermille uint64
	// CodePermille corrupts a loaded code page before the epoch runs
	// (models post-load memory corruption; bypasses the verify gate by
	// design — the gate checks bits at load time, not physics).
	CodePermille uint64
	// FuelPermille caps the epoch's fuel at a seeded budget (models a
	// runaway-execution watchdog firing mid-request).
	FuelPermille uint64
	// TamperPermille presents a tampered image to the verify-before-load
	// gate (models a compromised build artifact; must always be rejected).
	TamperPermille uint64
	// FuelMin/FuelMax bound the seeded fuel budget (instructions). Zero
	// values select the defaults below.
	FuelMin, FuelMax uint64
}

// Default fuel-bomb window: enough to boot and serve a few requests,
// small enough to fault partway through any full scenario.
const (
	defaultFuelMin = 30_000
	defaultFuelMax = 300_000
)

// NewInjector builds an injector applying one rate to every mechanism —
// the knob the faults figure sweeps.
func NewInjector(seed, ratePermille uint64) Injector {
	return Injector{
		Seed:           seed,
		WirePermille:   ratePermille,
		CodePermille:   ratePermille,
		FuelPermille:   ratePermille,
		TamperPermille: ratePermille,
	}
}

// roll is the shared biased coin: true with probability permille/1000,
// drawn from the (Seed, tag, idx) stream.
func (in Injector) roll(tag, idx, permille uint64) bool {
	if permille == 0 {
		return false
	}
	return rng.New(rng.Mix(in.Seed, tag, idx)).Next()%1000 < permille
}

// CorruptWire reports whether the request at absolute index req has its
// packet corrupted on the wire.
func (in Injector) CorruptWire(req uint64) bool {
	return in.roll(tagWire, req, in.WirePermille)
}

// CorruptPacket returns a corrupted copy of a request packet (the input
// is never mutated; queues share packet slices across replays). The
// corruption is deliberately adversarial rather than a blind bit flip —
// random single-byte flips almost never reach a guarded path: for
// word-protocol packets (>= 24 bytes, the KV wire format) it rewrites the
// op word to the decrypting op (put) and poisons the length word's low
// dword so the `(int)` truncation in the server yields a negative size,
// which the trusted decrypt handler must refuse (FaultTrusted). A seeded
// key-byte flip rides along. Fixed-format packets that ignore the length
// word (the TLS-ish handshake) decode the corruption as garbage data
// instead of faulting — their availability dips come from the code and
// fuel mechanisms.
func (in Injector) CorruptPacket(req uint64, pkt []byte) []byte {
	out := append([]byte(nil), pkt...)
	r := rng.New(rng.Mix(in.Seed, tagWirePayload, req))
	if len(out) >= 24 {
		binary.LittleEndian.PutUint64(out[0:8], 2) // op = put
		out[19] |= 0x80                            // (int)len < 0
		out[8+r.Intn(8)] ^= byte(1 + r.Intn(255))  // scramble the key too
	} else if len(out) > 0 {
		out[r.Intn(uint64(len(out)))] ^= byte(1 + r.Intn(255))
	}
	return out
}

// CodeBomb reports whether the given slot corrupts the epoch's loaded
// code image.
func (in Injector) CodeBomb(slot uint64) bool {
	return in.roll(tagCode, slot, in.CodePermille)
}

// CodeBombSite picks the seeded corruption target for a slot: the entry
// instruction of a non-stub function. Writing a single invalid-opcode
// byte (0xFF decodes to no instruction) there makes the first call into
// that function raise FaultDecode; a cold function makes the bomb a dud —
// corruption of an unexecuted page, which is also a real outcome. ok is
// false when the image has no eligible target.
func (in Injector) CodeBombSite(slot uint64, img *link.Image) (addr uint64, ok bool) {
	fs := pickFunc(rng.Mix(in.Seed, tagCodeTarget, slot), img)
	if fs == nil {
		return 0, false
	}
	return fs.Entry, true
}

// InvalidOpcode is the byte a code bomb plants: it decodes to no
// instruction, so execution reaching it raises FaultDecode in every
// dispatch mode.
const InvalidOpcode byte = 0xFF

// FuelBomb reports whether the given slot caps the epoch's fuel budget.
func (in Injector) FuelBomb(slot uint64) bool {
	return in.roll(tagFuel, slot, in.FuelPermille)
}

// FuelBudget returns the slot's seeded fuel allowance in instructions,
// drawn from [FuelMin, FuelMax).
func (in Injector) FuelBudget(slot uint64) uint64 {
	lo, hi := in.FuelMin, in.FuelMax
	if lo == 0 {
		lo = defaultFuelMin
	}
	if hi <= lo {
		hi = lo + (defaultFuelMax - defaultFuelMin)
	}
	return lo + rng.New(rng.Mix(in.Seed, tagFuelBudget, slot)).Intn(hi-lo)
}

// Tamper reports whether this epoch presents a tampered image to the
// verify-before-load gate.
func (in Injector) Tamper(epoch uint64) bool {
	return in.roll(tagTamper, epoch, in.TamperPermille)
}

// TamperImage returns a tampered copy of a linked image: the entry
// instruction of a seeded non-stub function is overwritten with a raw
// syscall opcode. The verifier must reject it (syscalls are forbidden in
// untrusted code, and the entry instruction is reachable from the entry
// magic word); if it were ever loaded anyway, the planted syscall would
// fault on first execution rather than execute silently. The original
// image is not modified — only the code bytes are copied; all metadata is
// shared read-only. Returns nil when the image has no eligible target.
func TamperImage(seed, epoch uint64, img *link.Image) *link.Image {
	fs := pickFunc(rng.Mix(seed, tagTamperSite, epoch), img)
	if fs == nil {
		return nil
	}
	code := append([]byte(nil), img.Code...)
	code[fs.Entry-img.Layout.CodeBase] = byte(asm.OpSyscall)
	mut := *img
	mut.Code = code
	return &mut
}

// pickFunc selects a seeded non-stub function with executable bytes.
func pickFunc(seed uint64, img *link.Image) *link.FuncSym {
	var elig []*link.FuncSym
	for _, fs := range img.Funcs {
		if !fs.IsStub && fs.Size > 0 {
			elig = append(elig, fs)
		}
	}
	if len(elig) == 0 {
		return nil
	}
	return elig[rng.New(seed).Intn(uint64(len(elig)))]
}
