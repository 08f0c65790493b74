package machine

import (
	"testing"

	"confllvm/internal/link"
)

// mapped returns a memory with one RW data region at base covering pages
// whole pages, plus a read-only region.
func mappedMem(t *testing.T) *Memory {
	t.Helper()
	mem := NewMemory()
	if _, err := mem.Map("data", 0x100000, 0x3000, PermR|PermW); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Map("ro", 0x200000, 0x1000, PermR); err != nil {
		t.Fatal(err)
	}
	return mem
}

// TestPageStraddleAccess: an access crossing a page boundary must bypass
// the TLB fast path (which only covers one page) and still read/write the
// correct little-endian value — both cold and after the TLB has been
// warmed for the pages on either side.
func TestPageStraddleAccess(t *testing.T) {
	mem := mappedMem(t)
	const straddle = 0x100FFC // 4 bytes in page 0, 4 bytes in page 1

	// Cold straddling write + read.
	if f := mem.Write(straddle, 8, 0x1122334455667788); f != nil {
		t.Fatal(f)
	}
	v, f := mem.Read(straddle, 8)
	if f != nil || v != 0x1122334455667788 {
		t.Fatalf("cold straddle read = %#x (%v)", v, f)
	}

	// Warm both pages' TLB entries, then repeat: the fast path must
	// reject the straddle (off+size > pageSize) and fall back.
	if _, f := mem.Read(0x100FF0, 8); f != nil {
		t.Fatal(f)
	}
	if _, f := mem.Read(0x101000, 8); f != nil {
		t.Fatal(f)
	}
	if f := mem.Write(straddle, 8, 0x8877665544332211); f != nil {
		t.Fatal(f)
	}
	v, f = mem.Read(straddle, 8)
	if f != nil || v != 0x8877665544332211 {
		t.Fatalf("warm straddle read = %#x (%v)", v, f)
	}
	// Byte-level check of the split: low bytes land at the end of page 0.
	lo, _ := mem.Read(straddle, 1)
	hi, _ := mem.Read(straddle+7, 1)
	if lo != 0x11 || hi != 0x88 {
		t.Fatalf("straddle bytes = %#x..%#x, want 0x11..0x88", lo, hi)
	}
}

// TestMisalignedAccessParity: misaligned in-page accesses are legal on
// both the cold (byte-loop) and warm (LittleEndian) paths and must agree
// bit-for-bit.
func TestMisalignedAccessParity(t *testing.T) {
	for _, size := range []uint8{2, 4, 8} {
		mem := mappedMem(t)
		const addr = 0x100801 // odd address, well inside a page
		val := uint64(0x1122334455667788) & (1<<(8*uint(size)) - 1)
		if size == 8 {
			val = 0x1122334455667788
		}
		// Cold: slow path (byte loop) both directions.
		if f := mem.Write(addr, size, val); f != nil {
			t.Fatal(f)
		}
		cold, f := mem.Read(addr, size)
		if f != nil {
			t.Fatal(f)
		}
		// Warm: the same page is now in the TLB; the fast path must see
		// the identical bytes.
		warm, f := mem.Read(addr, size)
		if f != nil {
			t.Fatal(f)
		}
		if cold != val || warm != val {
			t.Fatalf("size %d: cold=%#x warm=%#x want %#x", size, cold, warm, val)
		}
	}
}

// TestPartialPageNotCached: a region that covers only part of a page must
// never enter the TLB — a cached entry would let accesses inside the page
// but outside the region slip past the permission check.
func TestPartialPageNotCached(t *testing.T) {
	mem := NewMemory()
	// Region occupying the middle of one page.
	if _, err := mem.Map("sliver", 0x5800, 0x400, PermR|PermW); err != nil {
		t.Fatal(err)
	}
	if f := mem.Write(0x5800, 8, 42); f != nil {
		t.Fatal(f)
	}
	if v, f := mem.Read(0x5800, 8); f != nil || v != 42 {
		t.Fatalf("in-region read = %d (%v)", v, f)
	}
	// Same page, before the region: must fault even though the page was
	// just touched (the slow path must not have cached it).
	if _, f := mem.Read(0x5400, 8); f == nil || f.Kind != FaultUnmapped {
		t.Fatalf("out-of-region read in the same page: got %v, want unmapped fault", f)
	}
	// Access straddling the region end: the fault address is the first
	// out-of-range byte.
	if _, f := mem.Read(0x5BFC, 8); f == nil || f.Kind != FaultUnmapped || f.Addr != 0x5BFC+7 {
		t.Fatalf("region-end straddle: got %v, want unmapped at %#x", f, 0x5BFC+7)
	}
}

// TestFaultMessageParityFastSlow: the formatted fault for a denied access
// must be identical whether or not the page is resident in the TLB — the
// fast path may only succeed, never produce a different failure.
func TestFaultMessageParityFastSlow(t *testing.T) {
	// Cold machine: write to the read-only region.
	memA := mappedMem(t)
	fCold := memA.Write(0x200010, 8, 1)

	// Warm machine: read the page first so the TLB holds it (with R-only
	// perm), then write — the fast path sees perm&W == 0 and must fall
	// back to the identical slow-path fault.
	memB := mappedMem(t)
	if _, f := memB.Read(0x200010, 8); f != nil {
		t.Fatal(f)
	}
	fWarm := memB.Write(0x200010, 8, 1)

	if fCold == nil || fWarm == nil {
		t.Fatalf("read-only write must fault: cold=%v warm=%v", fCold, fWarm)
	}
	if *fCold != *fWarm {
		t.Fatalf("fault mismatch: cold=%+v warm=%+v", *fCold, *fWarm)
	}
	if fCold.Error() != fWarm.Error() {
		t.Fatalf("fault message mismatch:\ncold: %s\nwarm: %s", fCold.Error(), fWarm.Error())
	}
	if fCold.Kind != FaultPerm {
		t.Fatalf("want perm fault, got %v", fCold)
	}

	// Unmapped accesses: cold vs after unrelated TLB traffic.
	fColdU := memA.Write(0x900000, 8, 1)
	fWarmU := memB.Write(0x900000, 8, 1)
	if fColdU == nil || fWarmU == nil || *fColdU != *fWarmU || fColdU.Kind != FaultUnmapped {
		t.Fatalf("unmapped fault parity: cold=%v warm=%v", fColdU, fWarmU)
	}
}

// TestDigestIgnoresUntouchedPages: reading freshly-mapped (all-zero)
// memory allocates pages lazily but must not change the digest.
func TestDigestIgnoresUntouchedPages(t *testing.T) {
	mem := mappedMem(t)
	if f := mem.Write(0x100010, 8, 0xDEAD); f != nil {
		t.Fatal(f)
	}
	d0 := mem.Digest()
	if _, f := mem.Read(0x101000, 8); f != nil { // allocates a zero page
		t.Fatal(f)
	}
	if d1 := mem.Digest(); d1 != d0 {
		t.Fatalf("digest changed after reading untouched memory: %#x -> %#x", d0, d1)
	}
	if f := mem.Write(0x101000, 1, 1); f != nil {
		t.Fatal(f)
	}
	if d2 := mem.Digest(); d2 == d0 {
		t.Fatal("digest did not change after a real write")
	}
}

// TestTLBConflictVictims: under the MPX layout the code base, PubBase, the
// externals table and PrivBase all index TLB slot 0. Alternating reads
// across the four pages must be served by the slot and the victim buffer,
// with no region check after warm-up, and must still read the right
// bytes. A denied write to a page parked in the victim buffer must fault
// exactly as on a cold memory.
func TestTLBConflictVictims(t *testing.T) {
	l := link.MPXLayout()
	pages := []struct {
		name string
		base uint64
		perm Perm
	}{
		{"code", l.CodeBase, PermR | PermX},
		{"pub", l.PubBase, PermR | PermW},
		{"exttab", l.ExtTableBase(), PermR},
		{"priv", l.PrivBase, PermR | PermW},
	}
	newMem := func() *Memory {
		mem := NewMemory()
		for i, p := range pages {
			if (p.base>>pageShift)&tlbMask != 0 {
				t.Fatalf("%s base %#x no longer aliases TLB slot 0", p.name, p.base)
			}
			if _, err := mem.Map(p.name, p.base, 0x10000, p.perm); err != nil {
				t.Fatal(err)
			}
			var b [8]byte
			b[0] = byte(i + 1)
			if f := mem.WriteBytesUnchecked(p.base+8, b[:]); f != nil {
				t.Fatal(f)
			}
		}
		return mem
	}
	mem := newMem()
	for _, p := range pages { // warm-up: one region check per page
		if _, f := mem.Read(p.base+8, 8); f != nil {
			t.Fatal(f)
		}
	}
	warm := mem.TLBStats()
	const rounds = 1000
	for r := 0; r < rounds; r++ {
		for i, p := range pages {
			if v, f := mem.Read(p.base+8, 8); f != nil || v != uint64(i+1) {
				t.Fatalf("round %d %s: read %#x (%v), want %d", r, p.name, v, f, i+1)
			}
		}
	}
	st := mem.TLBStats()
	if st.Refills != warm.Refills {
		t.Errorf("%d region-check refills after warm-up, want 0", st.Refills-warm.Refills)
	}
	if got := st.VictimHits - warm.VictimHits; got != rounds*uint64(len(pages)) {
		t.Errorf("victim hits = %d, want %d", got, rounds*len(pages))
	}

	// The exttab page now sits in the victim buffer (priv holds slot 0).
	fWarm := mem.Write(l.ExtTableBase()+8, 8, 1)
	fCold := newMem().Write(l.ExtTableBase()+8, 8, 1)
	if fWarm == nil || fCold == nil || *fWarm != *fCold || fWarm.Kind != FaultPerm {
		t.Fatalf("exttab write: warm fault %v, cold fault %v, want identical perm faults", fWarm, fCold)
	}
}
