package machine

import (
	"confllvm/internal/asm"
)

// codeTrace is the decoded-trace cache for one executable region: a dense
// array of decoded instructions indexed by PC offset, so the fetch path is
// one bounds check and a pointer dereference instead of a map probe.
//
// Instructions are decoded lazily, one PC at a time, on first execution:
// the instruction stream is variable-length and interleaves data (magic
// sequences), so linear pre-decode from the region base would misalign.
// A slot in the middle of another instruction's encoding simply stays
// undecoded unless control flow actually lands there — which mirrors the
// hardware, where any byte offset is a potential instruction start.
//
// Code regions are immutable after loading (no W permission), so traces
// never go stale; Memory.WriteBytesUnchecked flushes them anyway for tests
// that patch code.
type codeTrace struct {
	lo   uint64
	size uint64
	code []byte // immutable snapshot of the region's bytes

	// insts[off] is valid iff lens[off] != 0; lens[off] is the encoded
	// length of the instruction starting at lo+off.
	insts []asm.Inst
	lens  []uint8

	// runs[off] is the flattened superblock entered at lo+off (nil = not
	// yet built); see superblock.go. Runs share the trace's lifetime: a
	// flushed trace takes its runs, and every chain link inside them, with
	// it.
	runs []*blockRun
}

func newCodeTrace(mem *Memory, r *Region) *codeTrace {
	tr := &codeTrace{
		lo:    r.Lo,
		size:  r.Size,
		code:  make([]byte, r.Size),
		insts: make([]asm.Inst, r.Size),
		lens:  make([]uint8, r.Size),
		runs:  make([]*blockRun, r.Size),
	}
	mem.copyOut(r.Lo, tr.code)
	return tr
}

// traceFor returns the decode trace covering pc, building one on first
// entry into an executable region. Fetching from guard space or a
// non-executable region faults, and so does entering a region that holds
// a trusted-handler address (see handlerIn).
func (m *Machine) traceFor(pc uint64) (*codeTrace, *Fault) {
	for _, tr := range m.traces {
		if pc-tr.lo < tr.size {
			return tr, nil
		}
	}
	r := m.Mem.Find(pc)
	if r == nil {
		return nil, &Fault{Kind: FaultUnmapped, Addr: pc, Msg: "fetch from guard space"}
	}
	if r.Perm&PermX == 0 {
		return nil, &Fault{Kind: FaultNX, Addr: pc, Msg: "fetch from " + r.Name}
	}
	if f := m.handlerIn(r); f != nil {
		return nil, f
	}
	tr := newCodeTrace(m.Mem, r)
	m.traces = append(m.traces, tr)
	return tr, nil
}

// handlerIn returns a fault naming the lowest trusted-handler address
// inside region r, or nil when r holds none. Handlers must lie outside
// every executable region: the dispatcher probes the handler map only
// when the PC leaves its decode trace, so a handler inside code would
// silently execute as code.
func (m *Machine) handlerIn(r *Region) *Fault {
	lo, found := uint64(0), false
	for a := range m.Handlers {
		if r.Contains(a) && (!found || a < lo) {
			lo, found = a, true
		}
	}
	if !found {
		return nil
	}
	return &Fault{Kind: FaultPerm, Addr: lo, Msg: "trusted handler inside executable region " + r.Name}
}

// RegisterCode eagerly builds the decode trace for the executable region
// containing addr (instruction decode itself stays lazy). The loader calls
// this once the image bytes and handlers are in place so the first fetch
// does not pay the region snapshot; it faults if a handler lies in the
// region.
func (m *Machine) RegisterCode(addr uint64) *Fault {
	_, f := m.traceFor(addr)
	return f
}

// flushTraces drops every decode trace (used when code bytes are patched).
func (m *Machine) flushTraces() {
	m.traces = m.traces[:0]
	m.lastTrace = nil
}
