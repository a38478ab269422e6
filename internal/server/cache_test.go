package server

import (
	"math"
	"sync"
	"testing"
)

func TestCacheDisabled(t *testing.T) {
	if c := newDistCache(0, true); c != nil {
		t.Fatal("entries=0 should disable the cache")
	}
	if c := newDistCache(-5, false); c != nil {
		t.Fatal("negative budget should disable the cache")
	}
}

func TestCachePutGet(t *testing.T) {
	c := newDistCache(64, false)
	if _, ok := c.get(1, 2); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.put(1, 2, 7, c.generation())
	if d, ok := c.get(1, 2); !ok || d != 7 {
		t.Fatalf("get(1,2) = (%d,%v), want (7,true)", d, ok)
	}
	// Directed cache: the reverse pair is a different key.
	if _, ok := c.get(2, 1); ok {
		t.Fatal("directed cache treated (2,1) as (1,2)")
	}
	if c.hits.Load() != 1 || c.misses.Load() != 2 {
		t.Fatalf("counters = (%d hits, %d misses), want (1, 2)", c.hits.Load(), c.misses.Load())
	}
}

func TestCacheUndirectedCanonicalizes(t *testing.T) {
	c := newDistCache(64, true)
	c.put(9, 3, 4, c.generation())
	if d, ok := c.get(3, 9); !ok || d != 4 {
		t.Fatalf("undirected get(3,9) = (%d,%v), want (4,true)", d, ok)
	}
}

// sameSetKeys returns n distinct directed pairs whose keys land in the
// set of (0,1), (0,1) first.
func sameSetKeys(t *testing.T, c *distCache, n int) [][2]int32 {
	t.Helper()
	base := c.setOf(c.pairKey(0, 1))
	keys := [][2]int32{{0, 1}}
	for s := int32(0); s < 256 && len(keys) < n; s++ {
		for u := int32(0); u < 256 && len(keys) < n; u++ {
			if (s != 0 || u != 1) && c.setOf(c.pairKey(s, u)) == base {
				keys = append(keys, [2]int32{s, u})
			}
		}
	}
	if len(keys) < n {
		t.Fatalf("found %d keys sharing a set, want %d", len(keys), n)
	}
	return keys
}

func TestCacheLRUEviction(t *testing.T) {
	// Eight sets of eight ways: a ninth key into a full set must evict
	// that set's least recently used entry, where a get counts as a use.
	c := newDistCache(8*cacheWays, false)
	keys := sameSetKeys(t, c, cacheWays+1)
	for i, k := range keys[:cacheWays] {
		c.put(k[0], k[1], uint32(i), c.generation())
	}
	// keys[0] is now the least recently used; touching it leaves keys[1]
	// as the eviction victim.
	if d, ok := c.get(keys[0][0], keys[0][1]); !ok || d != 0 {
		t.Fatalf("get(keys[0]) = (%d,%v), want (0,true)", d, ok)
	}
	last := keys[cacheWays]
	c.put(last[0], last[1], 99, c.generation())
	if _, ok := c.get(keys[1][0], keys[1][1]); ok {
		t.Fatal("least recently used entry not evicted from a full set")
	}
	if d, ok := c.get(keys[0][0], keys[0][1]); !ok || d != 0 {
		t.Fatalf("refreshed entry lost: (%d,%v)", d, ok)
	}
	for i, k := range keys[2:cacheWays] {
		if d, ok := c.get(k[0], k[1]); !ok || d != uint32(i+2) {
			t.Fatalf("entry %d = (%d,%v), want (%d,true)", i+2, d, ok, i+2)
		}
	}
	if d, ok := c.get(last[0], last[1]); !ok || d != 99 {
		t.Fatalf("newest entry lost: (%d,%v)", d, ok)
	}
}

func TestCacheUpdateRefreshes(t *testing.T) {
	c := newDistCache(1, false) // one set of one way
	c.put(5, 6, 1, c.generation())
	c.put(5, 6, 2, c.generation()) // update in place, no eviction
	if d, ok := c.get(5, 6); !ok || d != 2 {
		t.Fatalf("updated entry = (%d,%v), want (2,true)", d, ok)
	}
	if n := c.len(); n != 1 {
		t.Fatalf("len = %d, want 1", n)
	}
}

func TestCacheCapacity(t *testing.T) {
	for entries := 1; entries <= 5000; entries++ {
		c := newDistCache(entries, false)
		if got := c.capacity(); got < entries || got >= 2*entries {
			t.Fatalf("capacity for %d entries = %d, want in [%d, %d)", entries, got, entries, 2*entries)
		}
	}
}

// TestCachePutAllocs: the table is preallocated and pointer-free, so
// storing a new key allocates nothing, and neither does a purge.
func TestCachePutAllocs(t *testing.T) {
	c := newDistCache(1024, true)
	next := int32(0)
	allocs := testing.AllocsPerRun(1000, func() {
		c.put(next, next+1, uint32(next), c.generation())
		next++
	})
	if allocs != 0 {
		t.Fatalf("put of a new key allocates %.1f times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(10, c.purge); allocs != 0 {
		t.Fatalf("purge allocates %.1f times, want 0", allocs)
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := newDistCache(256, true)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int32(0); i < 500; i++ {
				s, u := i%40, (i*7+int32(w))%40
				c.put(s, u, uint32(s+u), c.generation())
				if d, ok := c.get(s, u); ok && d != uint32(s+u) {
					t.Errorf("get(%d,%d) = %d, want %d", s, u, d, s+u)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if c.len() > c.capacity() {
		t.Fatalf("cache overfilled: %d > %d", c.len(), c.capacity())
	}
}

func TestCachePurgeGeneration(t *testing.T) {
	c := newDistCache(64, false)
	c.put(1, 2, 7, c.generation())
	if _, ok := c.get(1, 2); !ok {
		t.Fatal("warm entry missing")
	}
	// An in-flight reader captures the generation, then an update purges
	// the cache before the reader stores its (now stale) answer: the
	// stored entry must never be served.
	staleGen := c.generation()
	c.purge()
	if _, ok := c.get(1, 2); ok {
		t.Fatal("purge did not drop the entry")
	}
	c.put(1, 2, 7, staleGen)
	if _, ok := c.get(1, 2); ok {
		t.Fatal("stale-generation entry was served after purge")
	}
	// A post-purge answer stored under the current generation serves.
	c.put(1, 2, 9, c.generation())
	if d, ok := c.get(1, 2); !ok || d != 9 {
		t.Fatalf("fresh entry = (%d,%v), want (9,true)", d, ok)
	}
}

// TestCacheGenerationWrap: a purge at generation MaxUint32 wraps the
// generation to 0 and clears the table, so an entry stored before it is
// never served, even once the generation comes round to its tag again.
func TestCacheGenerationWrap(t *testing.T) {
	c := newDistCache(64, false)
	c.gen.Store(math.MaxUint32)
	c.put(1, 2, 7, c.generation())
	if d, ok := c.get(1, 2); !ok || d != 7 {
		t.Fatalf("warm entry = (%d,%v), want (7,true)", d, ok)
	}
	c.purge()
	if g := c.generation(); g != 0 {
		t.Fatalf("generation after purge at MaxUint32 = %d, want 0", g)
	}
	if _, ok := c.get(1, 2); ok {
		t.Fatal("pre-purge entry served after the generation wrapped")
	}
	c.gen.Store(math.MaxUint32) // the generation's next lap reaches the old tag
	if _, ok := c.get(1, 2); ok {
		t.Fatal("pre-purge entry served when the generation came round again")
	}
}
