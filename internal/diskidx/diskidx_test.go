package diskidx

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sp"
	"sync"
)

func buildAndWrite(t *testing.T, directed, weighted bool, seed int64) (string, *graph.Graph) {
	t.Helper()
	g0, err := gen.ER(60, 160, directed, seed)
	if err != nil {
		t.Fatal(err)
	}
	g := g0
	if weighted {
		g, err = gen.WithRandomWeights(g0, 8, seed)
		if err != nil {
			t.Fatal(err)
		}
	}
	x, _, err := core.Build(g, core.Options{Method: core.Hybrid})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "idx")
	if err := Write(path, x); err != nil {
		t.Fatal(err)
	}
	return path, g
}

func TestDiskQueriesMatchTruth(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for _, weighted := range []bool{false, true} {
			path, g := buildAndWrite(t, directed, weighted, 3)
			d, err := Open(path, Options{})
			if err != nil {
				t.Fatal(err)
			}
			truth := sp.AllPairs(g)
			for s := int32(0); s < g.N(); s += 2 {
				for u := int32(0); u < g.N(); u += 3 {
					got, err := d.Distance(s, u)
					if err != nil {
						t.Fatal(err)
					}
					if got != truth[s][u] {
						t.Fatalf("directed=%v weighted=%v: disk dist(%d,%d) = %d, want %d",
							directed, weighted, s, u, got, truth[s][u])
					}
				}
			}
			if d.IOs() == 0 {
				t.Error("no I/Os recorded")
			}
			if err := d.Close(); err != nil {
				t.Error(err)
			}
		}
	}
}

func TestDiskIOAccounting(t *testing.T) {
	path, g := buildAndWrite(t, true, false, 7)
	d, err := Open(path, Options{BlockBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.N() != g.N() || !d.Directed() {
		t.Fatalf("header mismatch: n=%d directed=%v", d.N(), d.Directed())
	}
	if _, err := d.Distance(1, 2); err != nil {
		t.Fatal(err)
	}
	first := d.IOs()
	if first == 0 {
		t.Fatal("query performed no I/O")
	}
	d.ResetIOs()
	if d.IOs() != 0 {
		t.Error("reset failed")
	}
	// Self queries and out-of-range queries never touch the disk.
	if dist, _ := d.Distance(4, 4); dist != 0 {
		t.Error("self distance wrong")
	}
	if dist, _ := d.Distance(-1, 5); dist != graph.Infinity {
		t.Error("out-of-range wrong")
	}
	if d.IOs() != 0 {
		t.Error("trivial queries performed I/O")
	}
}

func TestDiskCache(t *testing.T) {
	path, _ := buildAndWrite(t, false, false, 9)
	d, err := Open(path, Options{CacheLabels: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Distance(1, 2); err != nil {
		t.Fatal(err)
	}
	cold := d.IOs()
	d.ResetIOs()
	if _, err := d.Distance(1, 2); err != nil {
		t.Fatal(err)
	}
	if d.IOs() != 0 {
		t.Errorf("warm query did %d I/Os, want 0 (cold was %d)", d.IOs(), cold)
	}
	// Cached answers must equal uncached ones.
	d2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	for s := int32(0); s < d.N(); s += 5 {
		for u := int32(0); u < d.N(); u += 7 {
			a, _ := d.Distance(s, u)
			b, _ := d2.Distance(s, u)
			if a != b {
				t.Fatalf("cache changed answer at (%d,%d): %d vs %d", s, u, a, b)
			}
		}
	}
}

func TestDiskCacheEviction(t *testing.T) {
	path, _ := buildAndWrite(t, false, false, 11)
	d, err := Open(path, Options{CacheLabels: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// Touch more labels than the cache holds; answers must stay right.
	want := map[[2]int32]uint32{}
	for s := int32(0); s < 10; s++ {
		for u := int32(10); u < 20; u++ {
			got, err := d.Distance(s, u)
			if err != nil {
				t.Fatal(err)
			}
			want[[2]int32{s, u}] = got
		}
	}
	for k, w := range want {
		got, _ := d.Distance(k[0], k[1])
		if got != w {
			t.Fatalf("eviction changed answer at %v", k)
		}
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad")
	if err := os.WriteFile(bad, []byte("not an index"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bad, Options{}); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Open(filepath.Join(dir, "missing"), Options{}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestEmptyIndexOnDisk(t *testing.T) {
	b := graph.NewBuilder(false, false)
	b.Grow(3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	x, _, err := core.Build(g, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "idx")
	if err := Write(path, x); err != nil {
		t.Fatal(err)
	}
	d, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if dist, _ := d.Distance(0, 2); dist != graph.Infinity {
		t.Errorf("dist = %d", dist)
	}
}

// TestScratchQueriesMatch checks the scratch-buffer path answers exactly
// what the allocating path answers, with and without the label cache, and
// that a scratch query loop stops allocating once the buffers are warm.
func TestScratchQueriesMatch(t *testing.T) {
	for _, cacheLabels := range []int{0, 64} {
		path, g := buildAndWrite(t, true, false, 21)
		d, err := Open(path, Options{CacheLabels: cacheLabels})
		if err != nil {
			t.Fatal(err)
		}
		var sc Scratch
		for s := int32(0); s < g.N(); s += 2 {
			for u := int32(0); u < g.N(); u += 3 {
				want, err := d.Distance(s, u)
				if err != nil {
					t.Fatal(err)
				}
				got, err := d.DistanceScratch(s, u, &sc)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("cache=%d: scratch dist(%d,%d) = %d, want %d",
						cacheLabels, s, u, got, want)
				}
			}
		}
		if cacheLabels == 0 {
			// Warm scratch: repeated queries must not allocate.
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := d.DistanceScratch(1, 2, &sc); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 0 {
				t.Errorf("warm scratch query allocates %v times, want 0", allocs)
			}
		}
		d.Close()
	}
}

// TestConcurrentDiskQueries hammers one cached DiskIndex from many
// goroutines (run under -race in CI) and cross-checks the answers.
func TestConcurrentDiskQueries(t *testing.T) {
	path, g := buildAndWrite(t, false, false, 23)
	d, err := Open(path, Options{CacheLabels: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	truth := sp.AllPairs(g)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int32) {
			defer wg.Done()
			var sc Scratch
			for i := int32(0); i < 200; i++ {
				s := (seed*31 + i*17) % g.N()
				u := (seed*13 + i*29) % g.N()
				got, err := d.DistanceScratch(s, u, &sc)
				if err != nil {
					t.Error(err)
					return
				}
				if got != truth[s][u] {
					t.Errorf("concurrent dist(%d,%d) = %d, want %d", s, u, got, truth[s][u])
					return
				}
			}
		}(int32(w))
	}
	wg.Wait()
	if d.IOs() == 0 {
		t.Error("no I/Os recorded under concurrency")
	}
}

// TestDiskStatAccessors checks Entries/SizeBytes/Weighted against the
// in-memory index the file was written from.
func TestDiskStatAccessors(t *testing.T) {
	g0, err := gen.ER(60, 160, true, 27)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.WithRandomWeights(g0, 8, 27)
	if err != nil {
		t.Fatal(err)
	}
	x, _, err := core.Build(g, core.Options{Method: core.Hybrid})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "idx")
	if err := Write(path, x); err != nil {
		t.Fatal(err)
	}
	d, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if !d.Weighted() {
		t.Error("Weighted() = false for a weighted index")
	}
	if d.Entries() != x.Entries() {
		t.Errorf("Entries() = %d, want %d", d.Entries(), x.Entries())
	}
	if d.SizeBytes() != x.Entries()*8 {
		t.Errorf("SizeBytes() = %d, want %d", d.SizeBytes(), x.Entries()*8)
	}
}

// TestDiskRejectsCorruptRow damages one label entry of an otherwise
// intact image, leaving its framing alone, so Open accepts the file.
// Every query reading the damaged row must fail naming the row, with
// and without the label cache, and every other answer must stay the
// intact index's.
func TestDiskRejectsCorruptRow(t *testing.T) {
	path, g := buildAndWrite(t, false, false, 3)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	clear(b[len(b)-8:]) // the last entry becomes pivot 0 at distance 0
	bad := filepath.Join(t.TempDir(), "bad")
	if err := os.WriteFile(bad, b, 0o644); err != nil {
		t.Fatal(err)
	}
	truth := sp.AllPairs(g)
	for _, cache := range []int{0, 64} {
		d, err := Open(bad, Options{CacheLabels: cache})
		if err != nil {
			t.Fatalf("cache %d: open refused an image with intact framing: %v", cache, err)
		}
		var failed int
		for round := 0; round < 2; round++ { // the second round re-reads through the cache
			for s := int32(0); s < g.N(); s++ {
				for u := int32(0); u < g.N(); u++ {
					got, err := d.Distance(s, u)
					if err != nil {
						if !strings.Contains(err.Error(), "not strictly sorted") {
							t.Fatalf("cache %d: dist(%d,%d): %v, want the row named", cache, s, u, err)
						}
						failed++
						continue
					}
					if got != truth[s][u] {
						t.Fatalf("cache %d: dist(%d,%d) = %d, want %d", cache, s, u, got, truth[s][u])
					}
				}
			}
		}
		if failed == 0 {
			t.Fatalf("cache %d: no query read the damaged row", cache)
		}
		d.Close()
	}
}
