package machine

import (
	"math/rand"
	"slices"
	"testing"
)

// refCache is the original L1 model, kept as the oracle for cache: one
// 24-byte {tag, valid, lru} struct per way, a combined hit/victim scan, a
// clock tick on every access and the tag taken as line >> 5.
type refCache struct {
	lines []refLine
	clock uint64
}

type refLine struct {
	tag   uint64
	valid bool
	lru   uint64
}

func newRefCache() *refCache {
	return &refCache{lines: make([]refLine, cacheSets*cacheWays)}
}

func (c *refCache) access(addr uint64) bool {
	c.clock++
	line := addr >> cacheLineBits
	si := (line & (cacheSets - 1)) * cacheWays
	set := c.lines[si : si+cacheWays]
	tag := line >> 5
	victim, invalid := 0, -1
	for i := range set {
		if set[i].valid {
			if set[i].tag == tag {
				set[i].lru = c.clock
				return true
			}
			if set[i].lru < set[victim].lru {
				victim = i
			}
		} else if invalid < 0 {
			invalid = i
		}
	}
	if invalid >= 0 {
		victim = invalid
	}
	set[victim] = refLine{tag: tag, valid: true, lru: c.clock}
	return false
}

// residentKeys returns set s's resident lines as cache keys (line + 1),
// sorted. The tag line >> 5 overlaps the set index by one bit, so the line
// is the tag's bits above bit 0 joined with the low 5 set-index bits.
func (c *refCache) residentKeys(s int) []uint64 {
	var keys []uint64
	for _, l := range c.lines[s*cacheWays : (s+1)*cacheWays] {
		if l.valid {
			keys = append(keys, (l.tag<<5|uint64(s)&31)+1)
		}
	}
	slices.Sort(keys)
	return keys
}

func (c *cache) residentKeys(s int) []uint64 {
	var keys []uint64
	for _, k := range c.sets[s].keys {
		if k != 0 {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return keys
}

// TestCacheMatchesReference feeds the cache and the reference model the
// same seeded address streams and requires the identical hit/miss
// sequence and, after every access, the identical resident lines in every
// set. Simulated cycles depend on both through the miss penalty.
func TestCacheMatchesReference(t *testing.T) {
	const base = 0x100000000
	streams := map[string]func(rng *rand.Rand, n int) []uint64{
		"sequential": func(_ *rand.Rand, n int) []uint64 {
			out := make([]uint64, n)
			for i := range out {
				out[i] = base + uint64(i)*8
			}
			return out
		},
		// A 4 KiB or 32 KiB stride maps every address to the same set:
		// cycling over 12 lines in an 8-way set evicts on every access.
		"stride4k": func(rng *rand.Rand, n int) []uint64 {
			out := make([]uint64, n)
			for i := range out {
				out[i] = base + uint64(i%12)*4096 + uint64(rng.Intn(64))
			}
			return out
		},
		"stride32k": func(rng *rand.Rand, n int) []uint64 {
			out := make([]uint64, n)
			for i := range out {
				out[i] = base + uint64(rng.Intn(10))*32768 + uint64(i%8)*8
			}
			return out
		},
		"random": func(rng *rand.Rand, n int) []uint64 {
			out := make([]uint64, n)
			for i := range out {
				out[i] = base + uint64(rng.Intn(1<<20))
			}
			return out
		},
		// Runs of 1-6 touches of one line, so the same-line memo fires
		// between misses, hits in other ways and conflict evictions.
		"repeated": func(rng *rand.Rand, n int) []uint64 {
			out := make([]uint64, 0, n)
			for len(out) < n {
				line := base + uint64(rng.Intn(2048))*64
				if rng.Intn(2) == 0 {
					line = base + uint64(rng.Intn(16))*4096
				}
				for r := rng.Intn(6) + 1; r > 0 && len(out) < n; r-- {
					out = append(out, line+uint64(rng.Intn(64)))
				}
			}
			return out
		},
	}
	for name, gen := range streams {
		for seed := int64(1); seed <= 3; seed++ {
			addrs := gen(rand.New(rand.NewSource(seed)), 6000)
			got, want := newCache(), newRefCache()
			for i, a := range addrs {
				if g, w := got.access(a), want.access(a); g != w {
					t.Fatalf("%s seed %d access %d (%#x): hit=%v, reference hit=%v", name, seed, i, a, g, w)
				}
				// Only the accessed set can change, so checking it after
				// every access checks every set after every access.
				s := int(a>>cacheLineBits) & (cacheSets - 1)
				if g, w := got.residentKeys(s), want.residentKeys(s); !slices.Equal(g, w) {
					t.Fatalf("%s seed %d access %d (%#x): set %d holds %#x, reference %#x",
						name, seed, i, a, s, g, w)
				}
			}
		}
	}
}
