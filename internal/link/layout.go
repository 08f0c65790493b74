// Package link assembles a codegen.Module into a loadable image: it lays
// out U's code and two-region data (Fig. 3), selects the unique 59-bit
// magic-sequence prefixes post-link (§6), patches all relocations and
// encodes the final byte stream that ConfVerify later re-checks.
package link

import "confllvm/internal/codegen"

// Layout fixes the virtual-address-space plan of an execution. Guard space
// is simply everything not covered by a region.
type Layout struct {
	// U code (read + execute).
	CodeBase uint64

	// Public and private data regions: globals, then heap, then the
	// stack area at the top. Both regions use the same internal offsets
	// so the public and private stacks stay in lock-step at distance
	// (PrivBase - PubBase).
	PubBase  uint64
	PrivBase uint64
	// UsableSize is the in-use window of each region.
	UsableSize uint64
	// StackArea is the portion of the window reserved for thread stacks.
	StackArea uint64
	// ThreadStack is the per-thread stack size (1 MB, 1 MB-aligned).
	ThreadStack uint64

	// ExtTableOff is the offset of the read-only externals table from
	// PubBase. The table must live inside the public segment window (the
	// stubs read it through fs under the segmentation scheme) but outside
	// the writable region and outside the MPX bounds, so U can never
	// redirect the stub jumps.
	ExtTableOff uint64

	// Trusted runtime (T): handler entry points and private T data.
	TBase uint64
	TSize uint64
}

// ExtTableBase returns the externals table's base address.
func (l Layout) ExtTableBase() uint64 { return l.PubBase + l.ExtTableOff }

// Offset returns the public->private distance (the paper's OFFSET).
func (l Layout) Offset() int64 { return int64(l.PrivBase - l.PubBase) }

// HeapStart returns the heap base of a region, given the size of its
// globals segment.
func (l Layout) HeapStart(regionBase, globalsSize uint64) uint64 {
	return (regionBase + globalsSize + 63) &^ 63
}

// StackTop returns the top of a region's stack area.
func (l Layout) StackTop(regionBase uint64) uint64 {
	return regionBase + l.UsableSize
}

// StackBounds returns the [lo, hi) bounds of thread tid's stack in a
// region. Thread stacks grow down from the top of the stack area.
func (l Layout) StackBounds(regionBase uint64, tid int) (lo, hi uint64) {
	top := l.StackTop(regionBase)
	hi = top - uint64(tid)*l.ThreadStack
	lo = hi - l.ThreadStack
	return lo, hi
}

const (
	kib = 1024
	mib = 1024 * kib
	gib = 1024 * mib
)

// MPXLayout is the contiguous two-partition layout of Fig. 3b: public and
// private regions adjacent, OFFSET = partition size (must fit in a 32-bit
// displacement). Nothing is mapped within codegen.MPXGuard below or above
// either region: the externals table starts exactly that far above the
// public region's top, the code ends far below it, and the private
// region's neighbours are further still. Bound-check elision for
// displaced operands relies on this.
func MPXLayout() Layout {
	return Layout{
		CodeBase:    16 * mib,
		PubBase:     4 * gib,
		PrivBase:    5 * gib, // OFFSET = 1 GB, fits imm32
		UsableSize:  64 * mib,
		StackArea:   8 * mib,
		ThreadStack: 1 * mib,
		ExtTableOff: 64*mib + codegen.MPXGuard,
		TBase:       1024 * gib,
		TSize:       16 * mib,
	}
}

// SegLayout is the segment-register layout of Fig. 3a: 4 GB-aligned
// segments separated by 36 GB of guard space, so no fs/gs-prefixed
// 32-bit-constrained operand can escape its segment.
func SegLayout() Layout {
	return Layout{
		CodeBase:    16 * mib,
		PubBase:     4 * gib,
		PrivBase:    44 * gib, // 4 GB usable + 36 GB guard + 4 GB-aligned
		UsableSize:  64 * mib,
		StackArea:   8 * mib,
		ThreadStack: 1 * mib,
		ExtTableOff: 64*mib + 1*mib,
		TBase:       1024 * gib,
		TSize:       16 * mib,
	}
}

// LayoutFor picks the layout matching a configuration.
func LayoutFor(conf codegen.Config) Layout {
	if conf.Bounds == codegen.BoundsSeg {
		return SegLayout()
	}
	return MPXLayout()
}
