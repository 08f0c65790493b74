// Package alloc implements the region-confined heap allocators: every
// allocation is carved out of one region (public, private, or T), so heap
// objects can never straddle a confidentiality boundary — the property the
// paper obtains by modifying dlmalloc (§6).
//
// Two policies are provided so the Base-vs-BaseOA comparison of §7.1 is
// reproducible: Bump models a naive system allocator that never reuses
// freed memory (larger footprint, worse locality), FreeList is the
// dlmalloc-like first-fit allocator with coalescing that ConfLLVM ships.
//
// The FreeList free list is kept sorted by address and fully coalesced, so
// Free costs a binary search plus at most one slice move (O(log n + n-move))
// and can only ever merge the freed chunk with its two neighbours.
package alloc

import (
	"fmt"
	"sort"
)

// Mode selects the allocation policy.
type Mode uint8

const (
	// Bump never reuses freed memory.
	Bump Mode = iota
	// FreeList is first-fit with free-block coalescing.
	FreeList
)

// Allocator hands out addresses from a fixed region window. Metadata lives
// host-side; the region's bytes are entirely the program's.
type Allocator struct {
	base, end uint64
	mode      Mode
	cursor    uint64
	free      []span // sorted by addr
	sizes     map[uint64]uint64
}

type span struct {
	addr, size uint64
}

const chunkAlign = 16

// New creates an allocator over [base, base+size).
func New(base, size uint64, mode Mode) *Allocator {
	return &Allocator{
		base: base, end: base + size, mode: mode, cursor: base,
		sizes: map[uint64]uint64{},
	}
}

// Alloc returns the address of a fresh chunk of at least size bytes.
func (a *Allocator) Alloc(size uint64) (uint64, error) {
	if size == 0 {
		size = 1
	}
	// Reject before rounding: (size + 15) &^ 15 wraps for huge sizes. A
	// size within the region's 16-aligned span cannot wrap.
	if size > (a.end-a.base)&^(chunkAlign-1) {
		return 0, fmt.Errorf("alloc: out of region memory (%d bytes requested)", size)
	}
	size = (size + chunkAlign - 1) &^ (chunkAlign - 1)
	if a.mode == FreeList {
		for i, s := range a.free {
			if s.size >= size {
				addr := s.addr
				if s.size == size {
					a.free = append(a.free[:i], a.free[i+1:]...)
				} else {
					a.free[i] = span{s.addr + size, s.size - size}
				}
				a.sizes[addr] = size
				return addr, nil
			}
		}
	}
	if size > a.end-a.cursor {
		return 0, fmt.Errorf("alloc: out of region memory (%d bytes requested)", size)
	}
	addr := a.cursor
	a.cursor += size
	a.sizes[addr] = size
	return addr, nil
}

// Free returns a chunk to the allocator. Freeing an address that was not
// allocated is an error (the trusted wrapper turns it into a fault).
func (a *Allocator) Free(addr uint64) error {
	size, ok := a.sizes[addr]
	if !ok {
		return fmt.Errorf("alloc: free of unallocated address %#x", addr)
	}
	delete(a.sizes, addr)
	if a.mode == Bump {
		return nil
	}
	// The list is sorted and fully coalesced, so the chunk can only merge
	// with the spans just below and just above it.
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].addr > addr })
	prev := i > 0 && a.free[i-1].addr+a.free[i-1].size == addr
	next := i < len(a.free) && addr+size == a.free[i].addr
	switch {
	case prev && next:
		a.free[i-1].size += size + a.free[i].size
		a.free = append(a.free[:i], a.free[i+1:]...)
	case prev:
		a.free[i-1].size += size
	case next:
		a.free[i] = span{addr, size + a.free[i].size}
	default:
		a.free = append(a.free, span{})
		copy(a.free[i+1:], a.free[i:])
		a.free[i] = span{addr, size}
	}
	return nil
}

// InUse returns the number of live chunks (for leak tests).
func (a *Allocator) InUse() int { return len(a.sizes) }

// HighWater returns the highest address ever handed out.
func (a *Allocator) HighWater() uint64 { return a.cursor }

// Contains reports whether addr lies in this allocator's region window.
func (a *Allocator) Contains(addr uint64) bool { return addr >= a.base && addr < a.end }
