package dynamic

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/label"
)

// allPairs answers every ordered pair from one epoch.
func allPairs(e *Epoch) []uint32 {
	n := e.N()
	out := make([]uint32, 0, int(n)*int(n))
	for s := int32(0); s < n; s++ {
		for t := int32(0); t < n; t++ {
			out = append(out, e.Distance(s, t))
		}
	}
	return out
}

// flatBytes serializes the materialised epoch.
func flatBytes(t *testing.T, e *Epoch) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := e.Flat().Write(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// assertOverlayMatchesFlat checks that resolving rows through the overlay
// and merging over the materialised CSR are the same function, and that
// the running counters describe the materialised index.
func assertOverlayMatchesFlat(t *testing.T, d *Index, when string) {
	t.Helper()
	e := d.Current()
	f := e.Flat()
	if err := f.Validate(); err != nil {
		t.Fatalf("%s: materialised epoch invalid: %v", when, err)
	}
	if e.Entries() != f.Entries() || e.SizeBytes() != f.SizeBytes() {
		t.Fatalf("%s: running count %d entries, materialised %d", when, e.Entries(), f.Entries())
	}
	n := e.N()
	for s := int32(0); s < n; s++ {
		for u := int32(0); u < n; u++ {
			if got, want := e.Distance(s, u), f.Distance(s, u); got != want {
				t.Fatalf("%s: overlay Distance(%d,%d) = %d, materialised says %d", when, s, u, got, want)
			}
		}
	}
}

// rowChanges classifies the rows that differ between two epochs: rewritten
// at equal length (a distance improved in place), grown, or shrunk.
func rowChanges(a, b *Epoch) (inPlace, grew, shrank int) {
	count := func(x, y []label.Entry) {
		switch {
		case len(y) > len(x):
			grew++
		case len(y) < len(x):
			shrank++
		case !slices.Equal(x, y):
			inPlace++
		}
	}
	for v := int32(0); v < a.N(); v++ {
		count(a.Out(v), b.Out(v))
		if a.Directed() {
			count(a.In(v), b.In(v))
		}
	}
	return
}

// TestPublishedEpochImmutable is the copy-on-write contract: an epoch a
// reader holds keeps its answers and its bytes while the writer applies
// hundreds of further mutations of every kind on top of it. An in-place
// label.Insert or label.RemovePivots on a row the held epoch shares —
// base or overlay — fails the byte comparison (and, under -race, the
// concurrent reader).
func TestPublishedEpochImmutable(t *testing.T) {
	g0, err := gen.ER(60, 140, false, 71)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.WithRandomWeights(g0, 9, 71)
	if err != nil {
		t.Fatal(err)
	}
	d := newDyn(t, g, Options{})
	es := newEdgeSet(g)
	rng := rand.New(rand.NewSource(73))

	// Hold an epoch that already has an overlay, so later mutations meet
	// shared overlay pages and rows, not only base rows.
	for d.Current().overlayRows == 0 {
		mutateRandomly(t, d, es, rng, 1, 0)
	}
	held := d.Current()
	wantPairs := allPairs(held)
	wantBytes := flatBytes(t, held)

	var (
		stop   atomic.Bool
		reader sync.WaitGroup
	)
	reader.Add(1)
	go func() {
		defer reader.Done()
		for !stop.Load() {
			if !slices.Equal(allPairs(held), wantPairs) {
				t.Error("held epoch changed an answer under the reader")
				return
			}
		}
	}()

	var inPlace, grew, shrank int
	for d.Stats().Inserts+d.Stats().Deletes < 220 || d.Stats().FullRebuilds == 0 {
		before := d.Current()
		mutateRandomly(t, d, es, rng, 1, 0)
		if after := d.Current(); after.base == before.base {
			i, g, s := rowChanges(before, after)
			inPlace, grew, shrank = inPlace+i, grew+g, shrank+s
		}
	}
	stop.Store(true)
	reader.Wait()

	st := d.Stats()
	if inPlace == 0 || grew == 0 || shrank == 0 || st.PartialRepairs == 0 || st.FullRebuilds == 0 {
		t.Fatalf("history too tame: %d rows rewritten in place, %d grown, %d shrunk; stats %+v", inPlace, grew, shrank, st)
	}
	if !slices.Equal(allPairs(held), wantPairs) {
		t.Fatal("held epoch answers differently after later mutations")
	}
	if !bytes.Equal(flatBytes(t, held), wantBytes) {
		t.Fatal("held epoch materialises to different bytes after later mutations")
	}
}

// glp10k builds the 10k-vertex GLP graph and its labels once for the two
// cost tests below.
var glp10k = sync.OnceValues(func() (*graph.Graph, *label.FlatIndex) {
	return glpIndex(10000)
})

func glpIndex(n int32) (*graph.Graph, *label.FlatIndex) {
	g, err := gen.GLP(gen.DefaultGLP(n, 4, 5))
	if err != nil {
		panic(err)
	}
	x, _, err := core.Build(g, core.Options{})
	if err != nil {
		panic(err)
	}
	return g, label.Freeze(x)
}

// medianInsertAlloc applies random effective inserts and returns the
// median bytes one InsertEdge allocated.
func medianInsertAlloc(t *testing.T, g *graph.Graph, flat *label.FlatIndex, inserts int) uint64 {
	t.Helper()
	d, err := New(flat, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	var ms runtime.MemStats
	var allocs []uint64
	for len(allocs) < inserts {
		u, v := rng.Int31n(g.N()), rng.Int31n(g.N())
		if u == v {
			continue
		}
		noops := d.Stats().NoOps
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if err := d.InsertEdge(u, v, 1); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		if d.Stats().NoOps == noops {
			allocs = append(allocs, ms.TotalAlloc-before)
		}
	}
	slices.Sort(allocs)
	return allocs[len(allocs)/2]
}

// TestInsertAllocationFlatInIndexSize states "an insert costs the rows it
// changes" as a count: what a median effective insert allocates does not
// follow the index size (it was one full copy of the labels, ~2.7 MB on
// the larger graph).
func TestInsertAllocationFlatInIndexSize(t *testing.T) {
	gs, fs := glpIndex(2500)
	gl, fl := glp10k()
	small := medianInsertAlloc(t, gs, fs, 120)
	large := medianInsertAlloc(t, gl, fl, 120)
	t.Logf("median bytes allocated per effective insert: %d at %d entries, %d at %d entries",
		small, fs.Entries(), large, fl.Entries())
	if large >= 64<<10 {
		t.Errorf("an insert into %d entries allocates %d bytes, want < 64 KB", fl.Entries(), large)
	}
	if large >= 2*small || small >= 2*large {
		t.Errorf("allocation per insert follows the index: %d B at %d entries vs %d B at %d entries",
			small, fs.Entries(), large, fl.Entries())
	}
}

// TestCompactedBaseSharesNoLoadedArray: a loaded index's arrays are views
// into its file buffer, so once compaction has moved the labels to a new
// base, that base must hold no array of the loaded index — the id tables
// included, or a 4n-byte perm would pin the whole buffer.
func TestCompactedBaseSharesNoLoadedArray(t *testing.T) {
	g, built := glpIndex(400)
	var buf bytes.Buffer
	if err := built.Write(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := label.ParseFlat(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Perm == nil {
		t.Fatal("builder no longer sets a permutation; the perm case is untested")
	}
	d, err := New(loaded, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; d.Stats().Compactions == 0; i++ {
		if i == 5000 {
			t.Fatal("no compaction after 5000 inserts")
		}
		u, v := rng.Int31n(g.N()), rng.Int31n(g.N())
		if u == v {
			continue
		}
		if err := d.InsertEdge(u, v, 1); err != nil {
			t.Fatal(err)
		}
	}
	b := d.Current().base
	if &b.Perm[0] == &loaded.Perm[0] {
		t.Error("compacted base shares the loaded index's perm")
	}
	if &b.OutOffsets[0] == &loaded.OutOffsets[0] || &b.OutEntries[0] == &loaded.OutEntries[0] {
		t.Error("compacted base shares the loaded index's label arrays")
	}
}

// liveHeap returns the bytes of reachable heap objects.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestNewRetainsNoLabelCopy: wrapping an index for updates keeps the
// adjacency and per-vertex scratch, not a second copy of the entries.
func TestNewRetainsNoLabelCopy(t *testing.T) {
	g, flat := glp10k()
	h0 := liveHeap()
	adj := newMutGraph(g, flat.Perm)
	h1 := liveHeap()
	d, err := New(flat, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h2 := liveHeap()
	runtime.KeepAlive(adj)
	runtime.KeepAlive(d)
	adjacency, retained := int64(h1-h0), int64(h2-h1)
	t.Logf("New retains %d B (adjacency alone %d B) beside %d B of labels", retained, adjacency, flat.SizeBytes())
	if budget := flat.SizeBytes()/4 + adjacency; retained >= budget {
		t.Errorf("New retains %d B, want < %d B (a quarter of the labels plus the adjacency)", retained, budget)
	}
}
