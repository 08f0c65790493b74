package machine

// cache models a set-associative L1 data cache with LRU replacement. Each
// hardware thread (core) has its own instance. The model only affects the
// cycle count, never the architectural state — it exists so that effects
// like the extra cache pressure of split public/private stacks (paper
// Fig. 6, OurMPX vs OurMPX-Sep) are observable.
type cache struct {
	// sets is the whole cache as one flat array. A set keeps its keys and
	// its LRU stamps in two parallel arrays, so the hit scan reads only
	// the 64-byte key array.
	sets   []cacheSet
	hits   uint64
	misses uint64

	// last is the key of the previous access (0 before the first). That
	// line is resident and already holds its set's newest stamp, so a
	// repeat touch changes no set's contents or LRU order: it is counted
	// as a hit without a scan or a clock tick.
	last uint64

	// clock is the per-cache LRU timestamp source. It is per instance (not
	// a process global) so that a machine's replacement decisions depend
	// only on its own access sequence: LRU comparisons are always between
	// lines of the same cache, so only the relative order of that cache's
	// own accesses matters, and a private monotonic clock preserves it
	// while keeping runs reproducible no matter what else the process has
	// simulated before.
	clock uint64
}

// cacheSet holds one set. keys[i] is the resident line number plus one,
// so 0 marks an invalid way; lru[i] is the way's last-touch stamp.
type cacheSet struct {
	keys [cacheWays]uint64
	lru  [cacheWays]uint64
}

// cache geometry: 32 KB, 64-byte lines, 8-way (Skylake-like L1D).
const (
	cacheLineBits = 6
	cacheWays     = 8
	cacheSets     = 32 * 1024 / (1 << cacheLineBits) / cacheWays
)

func newCache() *cache {
	return &cache{sets: make([]cacheSet, cacheSets)}
}

// access touches addr and reports whether it hit. On a miss the victim is
// the first invalid way by index, else the least-recently-used way.
// Comparing whole line numbers within a set is the same as comparing tags,
// because every line in a set shares the set-index bits.
func (c *cache) access(addr uint64) bool {
	key := addr>>cacheLineBits + 1
	if key == c.last {
		c.hits++
		return true
	}
	c.last = key
	c.clock++
	s := &c.sets[(key-1)&(cacheSets-1)]
	for i, k := range s.keys {
		if k == key {
			s.lru[i] = c.clock
			c.hits++
			return true
		}
	}
	c.misses++
	victim := 0
	for i, k := range s.keys {
		if k == 0 {
			victim = i
			break
		}
		if s.lru[i] < s.lru[victim] {
			victim = i
		}
	}
	s.keys[victim] = key
	s.lru[victim] = c.clock
	return false
}
