package server

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// cacheWays is the associativity of the distance cache: each set holds
// up to eight entries, kept in recency order.
const cacheWays = 8

// distCache is a set-associative cache of answered GET /v1/distance
// pairs: a power-of-two array of sets, each an exact LRU over at most
// cacheWays entries under its own mutex. The table holds no pointers
// and put allocates nothing. Both reachable distances and Infinity
// (unreachable) answers are cached — negative answers are exactly as
// expensive to recompute. Batches never consult it: the hot pairs of
// hub-skewed traffic merge in less time than a probe costs.
//
// Entries are generation-tagged so edge updates can invalidate them
// race-free: a reader that computed its answer against a pre-update
// label epoch stores it with the generation it captured BEFORE querying,
// and get ignores entries from past generations — so an answer that was
// in flight across a purge can land in the cache but can never be
// served.
type distCache struct {
	undirected bool // canonicalize (s,t) so both query directions share an entry
	ways       int  // entries per set: cacheWays, or the whole budget when smaller
	shift      uint // 64 - log2(len(sets)): the top hash bits pick the set
	sets       []cacheSet
	gen        atomic.Uint32
	hits       atomic.Int64
	misses     atomic.Int64
}

// cacheSet is one set: slots[:n] are live, most recently used first.
type cacheSet struct {
	mu    sync.Mutex
	n     int
	slots [cacheWays]cacheSlot
}

// cacheSlot is one cached answer plus the cache generation it was
// computed under.
type cacheSlot struct {
	key  uint64
	dist uint32
	gen  uint32
}

// newDistCache builds a cache holding at least `entries` pairs and
// fewer than twice that. It returns nil (cache disabled) for
// entries <= 0.
func newDistCache(entries int, undirected bool) *distCache {
	if entries <= 0 {
		return nil
	}
	ways := min(entries, cacheWays)
	nsets := 1 << bits.Len(uint((entries+ways-1)/ways-1))
	return &distCache{
		undirected: undirected,
		ways:       ways,
		shift:      uint(64 - bits.TrailingZeros(uint(nsets))),
		sets:       make([]cacheSet, nsets),
	}
}

// generation returns the current cache generation. Capture it BEFORE
// computing an answer and hand it to put; a purge in between makes the
// stored entry dead on arrival instead of silently stale.
func (c *distCache) generation() uint32 { return c.gen.Load() }

// pairKey packs a query pair into the cache key. For undirected indexes
// the pair is canonicalized so d(s,t) and d(t,s) share one entry.
func (c *distCache) pairKey(s, t int32) uint64 {
	if c.undirected && s > t {
		s, t = t, s
	}
	return uint64(uint32(s))<<32 | uint64(uint32(t))
}

// setOf mixes the key (fibonacci hashing) so sequential vertex ids do
// not all land in one set, then takes the top bits. A shift of 64 (one
// set) yields 0.
func (c *distCache) setOf(key uint64) *cacheSet {
	return &c.sets[(key*0x9e3779b97f4a7c15)>>c.shift]
}

// find returns the index of key among the set's live slots, or -1.
func (cs *cacheSet) find(key uint64) int {
	for i := range cs.slots[:cs.n] {
		if cs.slots[i].key == key {
			return i
		}
	}
	return -1
}

// toFront moves slot i to the most recently used position, storing v.
func (cs *cacheSet) toFront(i int, v cacheSlot) {
	copy(cs.slots[1:i+1], cs.slots[:i])
	cs.slots[0] = v
}

// get returns the cached distance for (s,t) and whether it was present,
// updating recency and the hit/miss counters. Entries stored under a
// past generation (answers computed before the last purge) are treated
// as misses.
func (c *distCache) get(s, t int32) (uint32, bool) {
	key := c.pairKey(s, t)
	cs := c.setOf(key)
	cs.mu.Lock()
	if i := cs.find(key); i >= 0 && cs.slots[i].gen == c.gen.Load() {
		v := cs.slots[i]
		cs.toFront(i, v)
		cs.mu.Unlock()
		c.hits.Add(1)
		return v.dist, true
	}
	cs.mu.Unlock()
	c.misses.Add(1)
	return 0, false
}

// put records an answered query under the generation the caller captured
// before computing it, evicting the set's least recently used entry
// when the set is full.
func (c *distCache) put(s, t int32, d uint32, gen uint32) {
	key := c.pairKey(s, t)
	cs := c.setOf(key)
	v := cacheSlot{key: key, dist: d, gen: gen}
	cs.mu.Lock()
	i := cs.find(key)
	if i < 0 {
		if cs.n < c.ways {
			cs.n++
		}
		i = cs.n - 1 // a free slot, or the LRU entry to evict
	}
	cs.toFront(i, v)
	cs.mu.Unlock()
}

// purge invalidates every cached entry, keeping the capacity and the
// cumulative hit/miss counters. Called after an edge update is applied:
// any cached pair may now be stale, and serving it would undo the
// update's visibility guarantee. The generation bump is what makes the
// invalidation airtight (in-flight answers computed pre-update die on
// arrival); clearing every slot means a generation that wraps round
// finds no entry from its previous lap.
func (c *distCache) purge() {
	c.gen.Add(1)
	for i := range c.sets {
		cs := &c.sets[i]
		cs.mu.Lock()
		cs.n = 0
		cs.slots = [cacheWays]cacheSlot{}
		cs.mu.Unlock()
	}
}

// len returns the number of cached entries across all sets.
func (c *distCache) len() int {
	total := 0
	for i := range c.sets {
		cs := &c.sets[i]
		cs.mu.Lock()
		total += cs.n
		cs.mu.Unlock()
	}
	return total
}

// capacity returns the total entry budget across all sets.
func (c *distCache) capacity() int { return len(c.sets) * c.ways }
