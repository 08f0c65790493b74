package rng

import "testing"

// TestGolden pins the stream and the mixer to values recorded before the
// scenario, chaos and verifymut copies were folded into this package.
// Every seeded figure table depends on them.
func TestGolden(t *testing.T) {
	next := map[uint64][]uint64{
		0:  {0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f, 0xf88bb8a8724c81ec},
		42: {0xbdd732262feb6e95, 0x28efe333b266f103, 0x47526757130f9f52, 0x581ce1ff0e4ae394},
	}
	for seed, want := range next {
		r := New(seed)
		for i, w := range want {
			if got := r.Next(); got != w {
				t.Errorf("New(%d): Next #%d = %#016x, want %#016x", seed, i, got, w)
			}
		}
	}

	r := New(7)
	for i, w := range []uint64{487, 804, 346, 203} {
		if got := r.Intn(1000); got != w {
			t.Errorf("New(7): Intn(1000) #%d = %d, want %d", i, got, w)
		}
	}
	if got := New(7).Intn(0); got != 0 {
		t.Errorf("Intn(0) = %d, want 0", got)
	}

	for _, c := range []struct {
		vals []uint64
		want uint64
	}{
		{nil, 0x9e3779b97f4a7c15},
		{[]uint64{0}, 0x1c77bf2c953f4afa},
		{[]uint64{1, 2, 3}, 0x7123bce884f21706},
		{[]uint64{0x5eed, 0x1a7e, 2, 1}, 0x0fa604b5f1124c03},
	} {
		if got := Mix(c.vals...); got != c.want {
			t.Errorf("Mix(%#x) = %#016x, want %#016x", c.vals, got, c.want)
		}
	}
}
