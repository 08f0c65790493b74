// Package trt implements the trusted runtime T: the small library of
// declassification, I/O and memory-management functions that U calls
// through the externals table (§2, §6).
//
// Handlers model T code compiled by a vanilla compiler: they run on the
// host, may access all machine memory, and are responsible for the same
// obligations the paper assigns to T wrappers —
//
//   - check that buffer arguments lie in the region their annotated
//     signature promises (e.g. send's buffer must be public);
//   - switch stacks/gs on entry and exit (modeled as a cycle charge);
//   - return to U through the CFI return discipline (jump past the
//     return-site magic word).
//
// The externally observable channels (NetOut, Log, Outputs) are what the
// attacker sees; exploit tests assert secrets never reach them in clear.
package trt

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"confllvm/internal/alloc"
	"confllvm/internal/asm"
	"confllvm/internal/codegen"
	"confllvm/internal/link"
	"confllvm/internal/machine"
)

// Context is the trusted runtime's state for one execution.
type Context struct {
	Img  *link.Image
	Conf codegen.Config

	PubAlloc  *alloc.Allocator
	PrivAlloc *alloc.Allocator

	// Simulated world.
	Files     map[string][]byte // file store (public contents)
	PrivFiles map[string][]byte // private file contents
	Passwords map[string][]byte // username -> stored password
	Params    []int64           // public scenario parameters (input)
	PrivIn    map[int][]byte    // private scenario inputs

	// Observable output channels (the attacker's view).
	NetIn   [][]byte // queued incoming packets
	NetOut  [][]byte // packets U sent (cleartext visible!)
	Log     []byte   // log file
	Outputs []int64  // public scalar outputs

	// Key is the toy cipher key; EncOverhead simulates crypto cost per
	// byte (cycles).
	Key byte

	// Spawn starts a new U thread at a function-pointer value (wired by
	// the loader facade).
	Spawn func(fnPtr uint64, arg uint64) error

	Rand *rand.Rand

	// Observe, when non-nil, is called after every trusted-handler
	// invocation with the handler's externals-table name and the calling
	// thread's cycle counter at entry and exit — the hook the
	// observability plane (internal/obs) builds request spans from. The
	// timestamps are simulated cycles, so observations are deterministic
	// and dispatch-mode-invariant. Handlers are only wrapped when Observe
	// is set at Handlers() time; the nil case costs nothing.
	Observe func(name string, startCycles, endCycles uint64)

	// extra registered handlers (application-specific T functions).
	extra map[string]machine.Handler
}

// NewContext creates a context with empty channels.
func NewContext(img *link.Image, pub, priv *alloc.Allocator) *Context {
	return &Context{
		Img: img, Conf: img.Config,
		PubAlloc: pub, PrivAlloc: priv,
		Files:     map[string][]byte{},
		PrivFiles: map[string][]byte{},
		Passwords: map[string][]byte{},
		PrivIn:    map[int][]byte{},
		Key:       DefaultKey,
		Rand:      rand.New(rand.NewSource(1)),
		extra:     map[string]machine.Handler{},
	}
}

// Register adds an application-specific T function.
func (c *Context) Register(name string, h machine.Handler) { c.extra[name] = h }

// tfault builds a trusted-wrapper rejection fault.
func tfault(format string, args ...interface{}) *machine.Fault {
	return &machine.Fault{Kind: machine.FaultTrusted, Msg: fmt.Sprintf(format, args...)}
}

// ---- Region checks (the wrapper obligations) ----

func (c *Context) pubRange(addr, size uint64) bool {
	l := c.Img.Layout
	return addr >= l.PubBase && size <= l.UsableSize && addr+size <= l.PubBase+l.UsableSize
}

func (c *Context) privRange(addr, size uint64) bool {
	l := c.Img.Layout
	if addr >= l.PrivBase && size <= l.UsableSize && addr+size <= l.PrivBase+l.UsableSize {
		return true
	}
	// Single-stack ablation (OurMPX-Sep): private stack data lives in the
	// public region; the wrapper accepts all of U's memory.
	if !c.Conf.SeparateStacks {
		return c.pubRange(addr, size)
	}
	return false
}

// CheckPub validates a public buffer argument.
func (c *Context) CheckPub(addr, size uint64) *machine.Fault {
	if c.Conf.IgnoreTaint {
		// Vanilla baseline: only require the buffer to be in U memory.
		if c.pubRange(addr, size) || c.privRange(addr, size) {
			return nil
		}
		return tfault("buffer [%#x,+%d) outside U memory", addr, size)
	}
	if !c.pubRange(addr, size) {
		return tfault("public buffer expected, got [%#x,+%d)", addr, size)
	}
	return nil
}

// CheckPriv validates a private buffer argument.
func (c *Context) CheckPriv(addr, size uint64) *machine.Fault {
	if c.Conf.IgnoreTaint {
		if c.pubRange(addr, size) || c.privRange(addr, size) {
			return nil
		}
		return tfault("buffer [%#x,+%d) outside U memory", addr, size)
	}
	if !c.privRange(addr, size) {
		return tfault("private buffer expected, got [%#x,+%d)", addr, size)
	}
	return nil
}

// ---- Transition costs and the return discipline ----

// charge accounts for the U->T->U transition plus per-byte work in T.
func (c *Context) charge(t *machine.Thread, bytes uint64) {
	var cost uint64
	if c.Conf.SeparateUT {
		cost = machine.TrustedCost // stack + gs switch, argument copying
	} else {
		cost = machine.TrustedCost1 // plain call into a shared library
	}
	cost += bytes / 8
	t.AddCycles(cost)
}

// Return performs the T->U return: pop the return address, and under CFI
// verify the return-site magic word and skip it (like the paper's
// wrappers, which "jump to U in a similar manner to our CFI return
// instrumentation").
func (c *Context) Return(m *machine.Machine, t *machine.Thread) *machine.Fault {
	raddr, f := t.Pop()
	if f != nil {
		return f
	}
	if !c.Conf.CFI {
		t.PC = raddr
		return nil
	}
	word, f := m.Mem.Read(raddr, 8)
	if f != nil {
		return f
	}
	if word&^31 != c.Img.MRetPrefix {
		return tfault("T wrapper: return site lacks MRet magic (raddr=%#x)", raddr)
	}
	t.PC = raddr + 8
	return nil
}

// ---- Machine memory helpers ----

// ReadCStr reads a NUL-terminated string (max 4096 bytes) from U memory.
func ReadCStr(m *machine.Machine, addr uint64) (string, *machine.Fault) {
	var out []byte
	for i := 0; i < 4096; i++ {
		b, f := m.Mem.Read(addr+uint64(i), 1)
		if f != nil {
			return "", f
		}
		if b == 0 {
			return string(out), nil
		}
		out = append(out, byte(b))
	}
	return string(out), nil
}

// arg returns the i-th integer argument (registers only; T's interface
// keeps at most 4 arguments, like the paper's wrappers).
func arg(t *machine.Thread, i int) uint64 {
	return t.Regs[asm.ArgRegs[i]]
}

// handler wraps a body with charge+return bookkeeping. The body returns
// (result, bytesTouched, fault).
func (c *Context) handler(body func(m *machine.Machine, t *machine.Thread) (uint64, uint64, *machine.Fault)) machine.Handler {
	return func(m *machine.Machine, t *machine.Thread) *machine.Fault {
		res, bytes, f := body(m, t)
		if f != nil {
			return f
		}
		t.Regs[asm.RetReg] = res
		c.charge(t, bytes)
		return c.Return(m, t)
	}
}

// DefaultKey is the session key used by every context (tests and
// harnesses pre-encrypt wire data with it).
const DefaultKey byte = 0x5a

// EncryptWithDefaultKey applies the toy cipher with the default session
// key (for building simulated wire traffic without a context).
func EncryptWithDefaultKey(data []byte) []byte { return xorCipher(DefaultKey, data) }

// EncryptIntoWithDefaultKey is EncryptWithDefaultKey writing the
// ciphertext into dst, which must be at least len(data) bytes and may
// be data itself, so a packet builder can encipher a value in place.
func EncryptIntoWithDefaultKey(dst, data []byte) { xorInto(DefaultKey, dst, data) }

// xorCipher is the toy cipher used by encrypt/decrypt: a rolling XOR that
// guarantees ciphertext differs from plaintext on every byte.
func xorCipher(key byte, data []byte) []byte {
	out := make([]byte, len(data))
	xorInto(key, out, data)
	return out
}

// xorInto is xorCipher writing into dst.
func xorInto(key byte, dst, data []byte) {
	dst = dst[:len(data)]
	k := key
	for i, b := range data {
		dst[i] = b ^ k ^ 0x80
		k = k*31 + 17
	}
}

// EncryptBytes exposes the toy cipher for tests.
func (c *Context) EncryptBytes(data []byte) []byte { return xorCipher(c.Key, data) }

// DecryptBytes inverts EncryptBytes.
func (c *Context) DecryptBytes(data []byte) []byte { return xorCipher(c.Key, data) }

// le64 encodes v little-endian.
func le64(v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return b[:]
}
