package dynamic

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/label"
)

// edgeKey identifies one edge in the mutation mirror; undirected edges
// are canonicalized u < v.
type edgeKey struct{ u, v int32 }

// edgeSet mirrors the dynamic index's graph so the harness can generate
// valid operations and rebuild the mutated graph from scratch.
type edgeSet struct {
	directed bool
	weighted bool
	n        int32
	m        map[edgeKey]int32 // weight (1 for unweighted)
	keys     []edgeKey         // insertion-ordered view for random picks
}

func newEdgeSet(g *graph.Graph) *edgeSet {
	es := &edgeSet{directed: g.Directed(), weighted: g.Weighted(), n: g.N(), m: map[edgeKey]int32{}}
	for u := int32(0); u < g.N(); u++ {
		ws := g.OutWeights(u)
		for i, v := range g.OutNeighbors(u) {
			if !g.Directed() && u > v {
				continue
			}
			w := int32(1)
			if ws != nil {
				w = ws[i]
			}
			es.put(u, v, w)
		}
	}
	return es
}

func (es *edgeSet) key(u, v int32) edgeKey {
	if !es.directed && u > v {
		u, v = v, u
	}
	return edgeKey{u, v}
}

func (es *edgeSet) put(u, v, w int32) {
	k := es.key(u, v)
	if _, ok := es.m[k]; !ok {
		es.keys = append(es.keys, k)
	}
	es.m[k] = w
}

func (es *edgeSet) remove(u, v int32) {
	k := es.key(u, v)
	delete(es.m, k)
	for i, kk := range es.keys {
		if kk == k {
			es.keys[i] = es.keys[len(es.keys)-1]
			es.keys = es.keys[:len(es.keys)-1]
			return
		}
	}
}

func (es *edgeSet) has(u, v int32) bool {
	_, ok := es.m[es.key(u, v)]
	return ok
}

// build reconstructs the mutated graph from the mirror.
func (es *edgeSet) build(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(es.directed, es.weighted)
	b.Grow(es.n)
	for k, w := range es.m {
		b.AddEdge(k.u, k.v, w)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// rebuildFlat builds a from-scratch index of the mutated graph.
func rebuildFlat(t *testing.T, g *graph.Graph) *label.FlatIndex {
	t.Helper()
	x, _, err := core.Build(g, core.Options{})
	if err != nil {
		t.Fatalf("from-scratch rebuild: %v", err)
	}
	return label.Freeze(x)
}

// assertEquivalent demands byte-identical Distance answers between the
// live dynamic index and a from-scratch rebuild, over every vertex pair.
func assertEquivalent(t *testing.T, d *Index, rebuilt *label.FlatIndex, when string) {
	t.Helper()
	f := d.Current()
	n := f.N()
	for s := int32(0); s < n; s++ {
		for u := int32(0); u < n; u++ {
			got, want := f.Distance(s, u), rebuilt.Distance(s, u)
			if got != want {
				t.Fatalf("%s: Distance(%d,%d) = %d, rebuild says %d", when, s, u, got, want)
			}
		}
	}
	if a := d.Anomalies(); a != 0 {
		t.Fatalf("%s: %d maintenance anomalies", when, a)
	}
}

// mutateRandomly drives ops random insert/delete operations (about 60%
// inserts), returning after asserting rebuild equivalence every
// checkEvery steps and at the end. After every single step it checks the
// epoch structure itself: the overlay answers exactly like its
// materialised CSR, and an epoch published by a compaction has an empty
// overlay.
func mutateRandomly(t *testing.T, d *Index, es *edgeSet, rng *rand.Rand, ops, checkEvery int) {
	t.Helper()
	for i := 0; i < ops; i++ {
		compactions := d.Stats().Compactions
		mutateOnce(t, d, es, rng, i)
		when := fmt.Sprintf("after op %d", i+1)
		assertOverlayMatchesFlat(t, d, when)
		if st := d.Stats(); st.Compactions != compactions {
			if e := d.Current(); st.OverlayRows != 0 || st.OverlayEntries != 0 || e.Flat() != e.base {
				t.Fatalf("%s: compaction left an overlay behind: %+v", when, st)
			}
		}
		if checkEvery > 0 && (i+1)%checkEvery == 0 {
			assertEquivalent(t, d, rebuildFlat(t, es.build(t)), when)
		}
	}
	assertEquivalent(t, d, rebuildFlat(t, es.build(t)), "after all ops")
	if err := d.Validate(); err != nil {
		t.Fatalf("labels invalid after mutations: %v", err)
	}
}

// mutateOnce applies one random effective mutation: an insert of a
// non-edge when the coin says so and one is found, else a delete.
func mutateOnce(t *testing.T, d *Index, es *edgeSet, rng *rand.Rand, i int) {
	t.Helper()
	n := es.n
	if rng.Intn(100) < 60 || len(es.keys) < 2 {
		// Find a non-edge (bounded probing; fall back to delete).
		for try := 0; try < 50; try++ {
			u, v := rng.Int31n(n), rng.Int31n(n)
			if u == v || es.has(u, v) {
				continue
			}
			w := int32(1)
			if es.weighted {
				w = 1 + rng.Int31n(9)
			}
			if err := d.InsertEdge(u, v, w); err != nil {
				t.Fatalf("op %d: insert (%d,%d,%d): %v", i, u, v, w, err)
			}
			es.put(u, v, w)
			return
		}
	}
	k := es.keys[rng.Intn(len(es.keys))]
	if err := d.DeleteEdge(k.u, k.v); err != nil {
		t.Fatalf("op %d: delete (%d,%d): %v", i, k.u, k.v, err)
	}
	es.remove(k.u, k.v)
}

// TestRebuildEquivalence applies random online mutations to live indexes
// over the required graph shapes (scale-free GLP, grid, star) plus
// directed and weighted variants, asserting after interleaved checkpoints
// and at the end that every pairwise distance matches a from-scratch
// rebuild of the mutated graph.
func TestRebuildEquivalence(t *testing.T) {
	shapes := []struct {
		name  string
		stale float64
		build func(t *testing.T) *graph.Graph
	}{
		{"glp", 0.25, func(t *testing.T) *graph.Graph {
			g, err := gen.GLP(gen.DefaultGLP(200, 3, 17))
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
		{"grid", 0.25, func(t *testing.T) *graph.Graph {
			g, err := gen.GridRoad(9, 9, 1, 23)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
		{"star", 1, func(t *testing.T) *graph.Graph {
			g, err := gen.Star(60)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
		{"directed-powerlaw", 0.25, func(t *testing.T) *graph.Graph {
			g, err := gen.PowerLaw(gen.PowerLawParams{N: 80, Density: 2.5, Alpha: 2.2, Directed: true, Seed: 29})
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
		{"weighted-er", 0.25, func(t *testing.T) *graph.Graph {
			g0, err := gen.ER(70, 160, false, 31)
			if err != nil {
				t.Fatal(err)
			}
			g, err := gen.WithRandomWeights(g0, 9, 31)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
	}
	var compactions int64
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			g := sh.build(t)
			d := newDyn(t, g, Options{MaxStaleFraction: sh.stale})
			es := newEdgeSet(g)
			ops, checkEvery := 120, 30
			if testing.Short() {
				ops, checkEvery = 40, 20
			}
			mutateRandomly(t, d, es, rand.New(rand.NewSource(99)), ops, checkEvery)
			st := d.Stats()
			t.Logf("%d compactions, %d full rebuilds, overlay now %d rows / %d entries",
				st.Compactions, st.FullRebuilds, st.OverlayRows, st.OverlayEntries)
			compactions += st.Compactions
		})
	}
	// The histories must cross the compaction threshold on their own (the
	// scale-free shape rebuilds on nearly every delete, so it may not), or
	// the per-step overlay checks never saw a base being cut.
	if compactions == 0 {
		t.Error("no history compacted its overlay")
	}
}

// TestRebuildEquivalenceEpochs pins the epoch contract the concurrency
// story relies on: every effective mutation publishes exactly one new
// immutable epoch, and old epochs keep answering from their graph state.
func TestRebuildEquivalenceEpochs(t *testing.T) {
	g := pathGraph(t, 6)
	d := newDyn(t, g, Options{})
	before := d.Current()
	wantBefore := before.Distance(0, 5)
	if err := d.InsertEdge(0, 5, 1); err != nil {
		t.Fatal(err)
	}
	if got := before.Distance(0, 5); got != wantBefore {
		t.Fatalf("old epoch changed its answer: %d -> %d", wantBefore, got)
	}
	if got := d.Current().Distance(0, 5); got != 1 {
		t.Fatalf("new epoch Distance(0,5) = %d, want 1", got)
	}
	if st := d.Stats(); st.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", st.Epoch)
	}
}
