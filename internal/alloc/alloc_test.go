package alloc

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// TestNoOverlap: live chunks never overlap and stay in the region,
// whatever the interleaving of Alloc and Free (testing/quick drives the
// schedule).
func TestNoOverlap(t *testing.T) {
	prop := func(seed int64, freeList bool) bool {
		rng := rand.New(rand.NewSource(seed))
		mode := Bump
		if freeList {
			mode = FreeList
		}
		a := New(0x1000, 1<<20, mode)
		type chunk struct{ addr, size uint64 }
		var live []chunk
		for i := 0; i < 300; i++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				k := rng.Intn(len(live))
				if err := a.Free(live[k].addr); err != nil {
					t.Logf("free: %v", err)
					return false
				}
				live = append(live[:k], live[k+1:]...)
				continue
			}
			size := uint64(rng.Intn(512) + 1)
			addr, err := a.Alloc(size)
			if err != nil {
				continue // region exhausted under Bump: fine
			}
			if !a.Contains(addr) || !a.Contains(addr+size-1) {
				t.Logf("chunk escapes region: %#x+%d", addr, size)
				return false
			}
			for _, c := range live {
				if addr < c.addr+c.size && c.addr < addr+size {
					t.Logf("overlap: [%#x,+%d) vs [%#x,+%d)", addr, size, c.addr, c.size)
					return false
				}
			}
			live = append(live, chunk{addr, size})
		}
		return a.InUse() == len(live)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFreeListReuse(t *testing.T) {
	a := New(0, 4096, FreeList)
	p1, _ := a.Alloc(128)
	if err := a.Free(p1); err != nil {
		t.Fatal(err)
	}
	p2, _ := a.Alloc(64)
	if p2 != p1 {
		t.Errorf("free list should reuse the freed block: got %#x, want %#x", p2, p1)
	}
}

func TestBumpNeverReuses(t *testing.T) {
	a := New(0, 4096, Bump)
	p1, _ := a.Alloc(128)
	a.Free(p1)
	p2, _ := a.Alloc(64)
	if p2 == p1 {
		t.Error("bump allocator must not reuse freed memory")
	}
}

func TestCoalescing(t *testing.T) {
	a := New(0, 4096, FreeList)
	p1, _ := a.Alloc(64)
	p2, _ := a.Alloc(64)
	p3, _ := a.Alloc(64)
	_ = p3
	a.Free(p1)
	a.Free(p2)
	// p1+p2 coalesce into 128 bytes: a 100-byte request must fit there.
	p4, err := a.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if p4 != p1 {
		t.Errorf("coalesced block not reused: got %#x, want %#x", p4, p1)
	}
}

func TestDoubleFree(t *testing.T) {
	a := New(0, 4096, FreeList)
	p, _ := a.Alloc(16)
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p); err == nil {
		t.Error("double free must be rejected")
	}
	if err := a.Free(0x999); err == nil {
		t.Error("wild free must be rejected")
	}
}

func TestExhaustion(t *testing.T) {
	a := New(0, 256, Bump)
	if _, err := a.Alloc(512); err == nil {
		t.Error("oversized allocation must fail")
	}
	if _, err := a.Alloc(128); err != nil {
		t.Error("fitting allocation must succeed")
	}
}

func TestZeroSize(t *testing.T) {
	a := New(0, 4096, FreeList)
	p1, err := a.Alloc(0)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := a.Alloc(0)
	if p1 == p2 {
		t.Error("zero-size allocations must still be distinct")
	}
}

// TestHugeSizeRejected pins the size-overflow fixes in both modes. A size
// near 2^64 used to wrap the 16-byte rounding (a zero-size chunk whose
// address the next Alloc handed out again), and a size just under 2^64
// wrapped the cursor below the region base.
func TestHugeSizeRejected(t *testing.T) {
	const gib = 1 << 30
	for _, mode := range []Mode{Bump, FreeList} {
		for _, size := range []uint64{1<<64 - 1, 1<<64 - gib + 1, 1<<64 - 16, 1 << 63, 1<<20 + 1} {
			a := New(5*gib, 1<<20, mode)
			if addr, err := a.Alloc(size); err == nil {
				t.Errorf("mode %d: Alloc(%#x) = %#x, want an error", mode, size, addr)
			}
			if a.HighWater() != 5*gib || a.InUse() != 0 {
				t.Errorf("mode %d: rejected Alloc(%#x) moved the cursor to %#x (in use %d)",
					mode, size, a.HighWater(), a.InUse())
			}
			p1, err1 := a.Alloc(16)
			p2, err2 := a.Alloc(16)
			if err1 != nil || err2 != nil || p1 == p2 || !a.Contains(p1) || !a.Contains(p2) {
				t.Errorf("mode %d: after Alloc(%#x): %#x (%v), %#x (%v)", mode, size, p1, err1, p2, err2)
			}
		}
		// The whole region is still one valid request, and then it is full.
		a := New(0x1000, 4096, mode)
		if p, err := a.Alloc(4096); err != nil || p != 0x1000 {
			t.Errorf("mode %d: whole-region Alloc = %#x (%v)", mode, p, err)
		}
		if _, err := a.Alloc(1); err == nil {
			t.Errorf("mode %d: Alloc on a full region must fail", mode)
		}
	}
}

// refFree is the original Free: append, sort the whole list, then coalesce
// every adjacent pair. TestFreeMatchesReference checks Free against it.
func refFree(a *Allocator, addr uint64) error {
	size, ok := a.sizes[addr]
	if !ok {
		return fmt.Errorf("alloc: free of unallocated address %#x", addr)
	}
	delete(a.sizes, addr)
	if a.mode == Bump {
		return nil
	}
	a.free = append(a.free, span{addr, size})
	sort.Slice(a.free, func(i, j int) bool { return a.free[i].addr < a.free[j].addr })
	out := a.free[:0]
	for _, s := range a.free {
		if n := len(out); n > 0 && out[n-1].addr+out[n-1].size == s.addr {
			out[n-1].size += s.size
		} else {
			out = append(out, s)
		}
	}
	a.free = out
	return nil
}

// TestFreeMatchesReference runs seeded alloc/free sequences (sizes 1-300,
// frees in random order) on two allocators, one freeing with Free and one
// with refFree. Simulated cycles depend on heap addresses through the L1
// model, so every returned address, the free list and InUse must agree
// after every operation.
func TestFreeMatchesReference(t *testing.T) {
	for _, mode := range []Mode{Bump, FreeList} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			got, want := New(0x10000, 1<<20, mode), New(0x10000, 1<<20, mode)
			var live []uint64
			for op := 0; op < 2000; op++ {
				if len(live) > 0 && rng.Intn(2) == 0 {
					k := rng.Intn(len(live))
					e1, e2 := got.Free(live[k]), refFree(want, live[k])
					if e1 != nil || e2 != nil {
						t.Fatalf("mode %d seed %d op %d: free %#x: %v / %v", mode, seed, op, live[k], e1, e2)
					}
					live = append(live[:k], live[k+1:]...)
				} else {
					size := uint64(rng.Intn(300) + 1)
					p1, e1 := got.Alloc(size)
					p2, e2 := want.Alloc(size)
					if p1 != p2 || (e1 == nil) != (e2 == nil) {
						t.Fatalf("mode %d seed %d op %d: Alloc(%d) = %#x (%v), reference %#x (%v)",
							mode, seed, op, size, p1, e1, p2, e2)
					}
					if e1 == nil {
						live = append(live, p1)
					}
				}
				if !reflect.DeepEqual(got.free, want.free) || got.InUse() != want.InUse() {
					t.Fatalf("mode %d seed %d op %d: free list %v (in use %d), reference %v (in use %d)",
						mode, seed, op, got.free, got.InUse(), want.free, want.InUse())
				}
			}
		}
	}
}
