// Package machine emulates the x64-like hardware that ConfLLVM-compiled
// binaries run on: a 64-bit sparse paged address space whose unmapped guard
// areas fault on access, fs/gs segment registers, MPX bound registers,
// per-thread stacks, an L1 data-cache model and a dual-issue port model
// (so that MPX checks can hide behind floating-point work, as the paper
// observes in the Privado experiment).
package machine

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Perm is a region permission bitmask.
type Perm uint8

const (
	PermR Perm = 1 << iota
	PermW
	PermX
)

func (p Perm) String() string {
	s := [3]byte{'-', '-', '-'}
	if p&PermR != 0 {
		s[0] = 'r'
	}
	if p&PermW != 0 {
		s[1] = 'w'
	}
	if p&PermX != 0 {
		s[2] = 'x'
	}
	return string(s[:])
}

// Region is a mapped range of the virtual address space. Anything outside
// every region is guard space: touching it faults.
type Region struct {
	Name string
	Lo   uint64
	Size uint64
	Perm Perm
}

// Contains reports whether addr lies inside the region.
func (r *Region) Contains(addr uint64) bool {
	return addr >= r.Lo && addr-r.Lo < r.Size
}

// End returns the first address past the region.
func (r *Region) End() uint64 { return r.Lo + r.Size }

const pageShift = 12
const pageSize = 1 << pageShift

// tlbBits sizes the direct-mapped page-lookup cache, indexed by the low
// page-number bits. The layouts' hot pages are not spread over those bits:
// the code base, PubBase, the externals table and PrivBase are all
// multiples of 256 KiB, so they share slot 0. A slot
// conflict therefore does not go back to the region search: the displaced
// entry moves to a small fully-associative victim buffer (tlbVictims
// entries, round-robin) that the slow path probes before check.
const (
	tlbBits    = 6
	tlbSize    = 1 << tlbBits
	tlbMask    = tlbSize - 1
	tlbVictims = 4
)

// tlbEntry caches one fully-validated page: the page is allocated, and a
// single region both contains it entirely and grants perm. Any access that
// stays inside the page needs only the perm test — no binary search, no
// boundary checks. An entry is valid iff page != nil.
type tlbEntry struct {
	pn   uint64
	page *[pageSize]byte
	perm Perm
}

// Memory is a sparse paged physical memory with region-based permissions.
// Pages are allocated lazily on first touch, so multi-gigabyte layouts
// (the paper's 4 GB-aligned segments with 36 GB guard areas) cost nothing.
type Memory struct {
	regions []*Region // sorted by Lo
	pages   map[uint64]*[pageSize]byte

	// tlb short-circuits Read/Write for pages wholly inside one region.
	// Only positive lookups are cached, and mapped regions are never
	// removed or re-permissioned, so entries never go stale.
	tlb [tlbSize]tlbEntry
	// victims holds entries displaced from tlb by a conflicting fill;
	// victimNext is the round-robin slot the next displaced entry takes.
	victims    [tlbVictims]tlbEntry
	victimNext int
	tlbStats   TLBStats

	// lastRegion and lastPage memoize the most recent lookups (execution
	// is single-goroutine; accesses are highly local).
	lastRegion *Region
	lastPageNo uint64
	lastPage   *[pageSize]byte

	onUncheckedWrite func()
}

// NewMemory returns an empty memory with no mappings.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*[pageSize]byte)}
}

// Map adds a region. Regions must not overlap.
func (mem *Memory) Map(name string, lo, size uint64, perm Perm) (*Region, error) {
	if size == 0 {
		return nil, fmt.Errorf("machine: empty region %q", name)
	}
	for _, r := range mem.regions {
		if lo < r.End() && r.Lo < lo+size {
			return nil, fmt.Errorf("machine: region %q [%#x,%#x) overlaps %q", name, lo, lo+size, r.Name)
		}
	}
	r := &Region{Name: name, Lo: lo, Size: size, Perm: perm}
	mem.regions = append(mem.regions, r)
	sort.Slice(mem.regions, func(i, j int) bool { return mem.regions[i].Lo < mem.regions[j].Lo })
	return r, nil
}

// Find returns the region containing addr, or nil (guard space).
func (mem *Memory) Find(addr uint64) *Region {
	if r := mem.lastRegion; r != nil && r.Contains(addr) {
		return r
	}
	i := sort.Search(len(mem.regions), func(i int) bool { return mem.regions[i].End() > addr })
	if i < len(mem.regions) && mem.regions[i].Contains(addr) {
		mem.lastRegion = mem.regions[i]
		return mem.regions[i]
	}
	return nil
}

// Regions returns the mapped regions, sorted by base address.
func (mem *Memory) Regions() []*Region { return mem.regions }

func (mem *Memory) page(addr uint64) *[pageSize]byte {
	pn := addr >> pageShift
	if pn == mem.lastPageNo && mem.lastPage != nil {
		return mem.lastPage
	}
	p := mem.pages[pn]
	if p == nil {
		p = new([pageSize]byte)
		mem.pages[pn] = p
	}
	mem.lastPageNo, mem.lastPage = pn, p
	return p
}

// check validates an access of size bytes at addr with permission need.
// A single access may not straddle a region boundary. On success it
// returns the containing region so callers can warm the TLB. Faults (and
// their messages) are built only on the failure path.
func (mem *Memory) check(addr uint64, size uint64, need Perm) (*Region, *Fault) {
	r := mem.Find(addr)
	if r == nil {
		return nil, &Fault{Kind: FaultUnmapped, Addr: addr}
	}
	if addr+size-1 > r.End()-1 { // careful with wraparound
		return nil, &Fault{Kind: FaultUnmapped, Addr: addr + size - 1}
	}
	if r.Perm&need != need {
		return nil, &Fault{Kind: FaultPerm, Addr: addr, Msg: fmt.Sprintf("need %s in %s (%s)", need, r.Name, r.Perm)}
	}
	return r, nil
}

// TLBStats counts the page TLB's slow-path work. Both counters move only
// on the slow path; a TLB hit touches neither.
type TLBStats struct {
	Refills    uint64 // entries installed after a region check
	VictimHits uint64 // slow-path lookups served by the victim buffer
}

// TLBStats returns the page TLB's counters.
func (mem *Memory) TLBStats() TLBStats { return mem.tlbStats }

// fillTLB caches the page containing addr if region r wholly covers it
// (a partially-covered page must keep taking the slow path, because an
// access inside the page could still escape the region). A valid entry
// for another page in the slot moves to the victim buffer.
func (mem *Memory) fillTLB(addr uint64, r *Region) {
	pn := addr >> pageShift
	lo := pn << pageShift
	if lo < r.Lo || r.End()-lo < pageSize {
		return
	}
	e := &mem.tlb[pn&tlbMask]
	if e.page != nil {
		if e.pn == pn {
			return // cached already: the access failed the fast path on perm or a straddle
		}
		mem.victims[mem.victimNext] = *e
		mem.victimNext = (mem.victimNext + 1) % tlbVictims
	}
	*e = tlbEntry{pn: pn, page: mem.page(addr), perm: r.Perm}
	mem.tlbStats.Refills++
}

// fromVictim swaps page pn back from the victim buffer into its TLB slot
// and reports whether it did. The slot's entry takes the freed victim
// place. Nothing is swapped when the slot already holds pn: the fast path
// then failed on perm or a page straddle, and only check can decide.
func (mem *Memory) fromVictim(pn uint64) bool {
	e := &mem.tlb[pn&tlbMask]
	if e.page != nil && e.pn == pn {
		return false
	}
	for i := range mem.victims {
		if v := &mem.victims[i]; v.page != nil && v.pn == pn {
			*e, *v = *v, *e
			mem.tlbStats.VictimHits++
			return true
		}
	}
	return false
}

// Read reads size (1/2/4/8) bytes at addr, zero-extended.
func (mem *Memory) Read(addr uint64, size uint8) (uint64, *Fault) {
	off := addr & (pageSize - 1)
	if e := &mem.tlb[(addr>>pageShift)&tlbMask]; e.page != nil && e.pn == addr>>pageShift &&
		e.perm&PermR != 0 && off+uint64(size) <= pageSize {
		p := e.page
		switch size {
		case 8:
			return binary.LittleEndian.Uint64(p[off : off+8]), nil
		case 4:
			return uint64(binary.LittleEndian.Uint32(p[off : off+4])), nil
		case 2:
			return uint64(binary.LittleEndian.Uint16(p[off : off+2])), nil
		case 1:
			return uint64(p[off]), nil
		}
	}
	return mem.readSlow(addr, size)
}

func (mem *Memory) readSlow(addr uint64, size uint8) (uint64, *Fault) {
	if mem.fromVictim(addr >> pageShift) {
		// The slot now holds the page: retry the fast path. A retry that
		// fails again finds the page in its slot and goes to check.
		return mem.Read(addr, size)
	}
	r, f := mem.check(addr, uint64(size), PermR)
	if f != nil {
		return 0, f
	}
	mem.fillTLB(addr, r)
	off := addr & (pageSize - 1)
	if off+uint64(size) <= pageSize {
		// The access stays within one page.
		p := mem.page(addr)
		var v uint64
		for i := int(size) - 1; i >= 0; i-- {
			v = v<<8 | uint64(p[off+uint64(i)])
		}
		return v, nil
	}
	var buf [8]byte
	mem.copyOut(addr, buf[:size])
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// Write writes the low size bytes of val at addr.
func (mem *Memory) Write(addr uint64, size uint8, val uint64) *Fault {
	off := addr & (pageSize - 1)
	if e := &mem.tlb[(addr>>pageShift)&tlbMask]; e.page != nil && e.pn == addr>>pageShift &&
		e.perm&PermW != 0 && off+uint64(size) <= pageSize {
		p := e.page
		switch size {
		case 8:
			binary.LittleEndian.PutUint64(p[off:off+8], val)
			return nil
		case 4:
			binary.LittleEndian.PutUint32(p[off:off+4], uint32(val))
			return nil
		case 2:
			binary.LittleEndian.PutUint16(p[off:off+2], uint16(val))
			return nil
		case 1:
			p[off] = byte(val)
			return nil
		}
	}
	return mem.writeSlow(addr, size, val)
}

func (mem *Memory) writeSlow(addr uint64, size uint8, val uint64) *Fault {
	if mem.fromVictim(addr >> pageShift) {
		return mem.Write(addr, size, val)
	}
	r, f := mem.check(addr, uint64(size), PermW)
	if f != nil {
		return f
	}
	mem.fillTLB(addr, r)
	off := addr & (pageSize - 1)
	if off+uint64(size) <= pageSize {
		p := mem.page(addr)
		for i := uint64(0); i < uint64(size); i++ {
			p[off+i] = byte(val)
			val >>= 8
		}
		return nil
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], val)
	mem.copyIn(addr, buf[:size])
	return nil
}

// ReadBytes copies len(dst) bytes starting at addr into dst. Used by
// trusted-runtime handlers, which access U memory on the host side.
func (mem *Memory) ReadBytes(addr uint64, dst []byte) *Fault {
	if len(dst) == 0 {
		return nil
	}
	if _, f := mem.check(addr, uint64(len(dst)), PermR); f != nil {
		return f
	}
	mem.copyOut(addr, dst)
	return nil
}

// WriteBytes copies src into memory at addr.
func (mem *Memory) WriteBytes(addr uint64, src []byte) *Fault {
	if len(src) == 0 {
		return nil
	}
	if _, f := mem.check(addr, uint64(len(src)), PermW); f != nil {
		return f
	}
	mem.copyIn(addr, src)
	return nil
}

// ReadBytesUnchecked copies bytes ignoring permissions (still requires the
// range to be mapped). The loader uses it to initialize read-only regions.
func (mem *Memory) ReadBytesUnchecked(addr uint64, dst []byte) *Fault {
	r := mem.Find(addr)
	if r == nil || addr+uint64(len(dst)) > r.End() {
		return &Fault{Kind: FaultUnmapped, Addr: addr}
	}
	mem.copyOut(addr, dst)
	return nil
}

// WriteBytesUnchecked writes bytes ignoring the W permission (the range
// must be mapped). The loader uses it to populate code and rodata.
func (mem *Memory) WriteBytesUnchecked(addr uint64, src []byte) *Fault {
	if len(src) == 0 {
		return nil
	}
	if mem.onUncheckedWrite != nil {
		mem.onUncheckedWrite()
	}
	r := mem.Find(addr)
	if r == nil || addr+uint64(len(src)) > r.End() {
		return &Fault{Kind: FaultUnmapped, Addr: addr}
	}
	mem.copyIn(addr, src)
	return nil
}

// Digest returns a deterministic FNV-1a hash of the allocated page
// contents, keyed by page number. All-zero pages are skipped, so pages
// that were lazily allocated but never written (e.g. by a read of fresh
// memory) do not perturb the hash. The differential-execution tests use
// this to compare whole address spaces across dispatch modes.
func (mem *Memory) Digest() uint64 {
	pns := make([]uint64, 0, len(mem.pages))
	for pn := range mem.pages {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, pn := range pns {
		p := mem.pages[pn]
		zero := true
		for _, b := range p {
			if b != 0 {
				zero = false
				break
			}
		}
		if zero {
			continue
		}
		for i := 0; i < 8; i++ {
			h ^= (pn >> (8 * i)) & 0xFF
			h *= prime64
		}
		for _, b := range p {
			h ^= uint64(b)
			h *= prime64
		}
	}
	return h
}

func (mem *Memory) copyOut(addr uint64, dst []byte) {
	for len(dst) > 0 {
		p := mem.page(addr)
		off := addr & (pageSize - 1)
		n := copy(dst, p[off:])
		dst = dst[n:]
		addr += uint64(n)
	}
}

func (mem *Memory) copyIn(addr uint64, src []byte) {
	for len(src) > 0 {
		p := mem.page(addr)
		off := addr & (pageSize - 1)
		n := copy(p[off:], src)
		src = src[n:]
		addr += uint64(n)
	}
}

// FaultKind classifies machine faults.
type FaultKind uint8

const (
	FaultNone     FaultKind = iota
	FaultUnmapped           // guard-space access (unmapped page)
	FaultPerm               // permission violation (e.g. writing code)
	FaultNX                 // fetching from a non-executable region
	FaultBounds             // MPX bndcl/bndcu violation
	FaultCFI                // trap instruction reached (CFI check failed)
	FaultDecode             // undecodable instruction (e.g. executing data)
	FaultDivide             // integer divide by zero
	FaultStack              // rsp escaped the thread stack (_chkstk)
	FaultTrusted            // trusted-runtime wrapper rejected an argument
	FaultFuel               // instruction budget exhausted
)

var faultNames = map[FaultKind]string{
	FaultUnmapped: "guard-page access", FaultPerm: "permission violation",
	FaultNX: "non-executable fetch", FaultBounds: "MPX bound violation",
	FaultCFI: "CFI trap", FaultDecode: "decode fault",
	FaultDivide: "divide error", FaultStack: "stack bound violation",
	FaultTrusted: "trusted wrapper check failed", FaultFuel: "fuel exhausted",
}

// String names the fault kind (the same label Fault.Error leads with).
func (k FaultKind) String() string {
	if k == FaultNone {
		return "none"
	}
	if s, ok := faultNames[k]; ok {
		return s
	}
	return fmt.Sprintf("fault(%d)", uint8(k))
}

// Fault describes an execution fault. Faults stop the faulting thread; the
// confidentiality argument is that ill-behaved code faults instead of
// leaking.
type Fault struct {
	Kind FaultKind
	Addr uint64
	PC   uint64
	Msg  string
	// Cycle is the faulting thread's simulated cycle count at delivery,
	// stamped by Thread.fault. It is a simulated quantity — bit-identical
	// across dispatch modes (the differential tests compare whole Fault
	// values) — so restart supervisors can account recovery latency in
	// simulated cycles. It is deliberately excluded from Error(): fault
	// messages predate it and stay stable.
	Cycle uint64
}

func (f *Fault) Error() string {
	s := faultNames[f.Kind]
	if s == "" {
		s = fmt.Sprintf("fault(%d)", f.Kind)
	}
	if f.Addr != 0 {
		s += fmt.Sprintf(" addr=%#x", f.Addr)
	}
	if f.PC != 0 {
		s += fmt.Sprintf(" pc=%#x", f.PC)
	}
	if f.Msg != "" {
		s += ": " + f.Msg
	}
	return s
}
