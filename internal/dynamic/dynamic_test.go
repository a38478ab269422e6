package dynamic

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/sp"
	"repro/internal/wire"
)

// buildFlat builds a frozen index for g through the regular pipeline.
func buildFlat(t *testing.T, g *graph.Graph) *label.FlatIndex {
	t.Helper()
	x, _, err := core.Build(g, core.Options{})
	if err != nil {
		t.Fatalf("building index: %v", err)
	}
	return label.Freeze(x)
}

// newDyn builds an index for g and wraps it for updates.
func newDyn(t *testing.T, g *graph.Graph, opt Options) *Index {
	t.Helper()
	d, err := New(buildFlat(t, g), g, opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d
}

// checkAgainst asserts the dynamic index answers exactly like a
// single-source-search ground truth of want, for all pairs.
func checkAgainst(t *testing.T, d *Index, want *graph.Graph) {
	t.Helper()
	truth := sp.AllPairs(want)
	f := d.Current()
	n := want.N()
	for s := int32(0); s < n; s++ {
		for u := int32(0); u < n; u++ {
			if got := f.Distance(s, u); got != truth[s][u] {
				t.Fatalf("Distance(%d,%d) = %d, want %d", s, u, got, truth[s][u])
			}
		}
	}
	if a := d.Anomalies(); a != 0 {
		t.Fatalf("maintenance recorded %d anomalies, want 0", a)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("labels invalid: %v", err)
	}
}

// pathGraph returns the path 0-1-2-...-(n-1).
func pathGraph(t *testing.T, n int32) *graph.Graph {
	t.Helper()
	g, err := gen.Path(n, false)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestInsertShortcut(t *testing.T) {
	g := pathGraph(t, 8)
	d := newDyn(t, g, Options{})

	b := graph.NewBuilder(false, false)
	b.Grow(8)
	for i := int32(0); i < 7; i++ {
		b.AddEdge(i, i+1, 1)
	}
	b.AddEdge(0, 7, 1)
	mutated, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	if d.N() != 8 {
		t.Fatalf("N() = %d, want 8", d.N())
	}
	if err := d.InsertEdge(0, 7, 1); err != nil {
		t.Fatalf("InsertEdge: %v", err)
	}
	checkAgainst(t, d, mutated)
	st := d.Stats()
	if st.Inserts != 1 || st.Epoch != 1 {
		t.Errorf("stats = %+v, want 1 insert, epoch 1", st)
	}
}

func TestInsertConnectsComponents(t *testing.T) {
	// Two disjoint paths; the insert bridges them.
	b := graph.NewBuilder(false, false)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(3, 4, 1)
	b.AddEdge(4, 5, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	d := newDyn(t, g, Options{})

	b2 := graph.NewBuilder(false, false)
	b2.AddEdge(0, 1, 1)
	b2.AddEdge(1, 2, 1)
	b2.AddEdge(3, 4, 1)
	b2.AddEdge(4, 5, 1)
	b2.AddEdge(2, 3, 1)
	mutated, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}

	if err := d.InsertEdge(2, 3, 1); err != nil {
		t.Fatal(err)
	}
	checkAgainst(t, d, mutated)
}

func TestDeleteEdgeGrid(t *testing.T) {
	g, err := gen.GridRoad(4, 4, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	d := newDyn(t, g, Options{MaxStaleFraction: 1}) // force partial repair

	// Delete the 0-1 edge; rebuild truth from the remaining edges.
	b := graph.NewBuilder(false, true)
	b.Grow(g.N())
	for u := int32(0); u < g.N(); u++ {
		for i, v := range g.OutNeighbors(u) {
			if u > v || (u == 0 && v == 1) {
				continue
			}
			b.AddEdge(u, v, g.OutWeights(u)[i])
		}
	}
	mutated, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	if err := d.DeleteEdge(0, 1); err != nil {
		t.Fatalf("DeleteEdge: %v", err)
	}
	checkAgainst(t, d, mutated)
	st := d.Stats()
	if st.Deletes != 1 || st.PartialRepairs != 1 || st.FullRebuilds != 0 {
		t.Errorf("stats = %+v, want 1 delete absorbed by partial repair", st)
	}
	if st.DirtyVertices == 0 || st.Staleness == 0 {
		t.Errorf("stats = %+v, want non-zero dirty vertices after a repair", st)
	}
}

func TestDeleteDisconnects(t *testing.T) {
	// Deleting the only bridge makes half the graph unreachable.
	g := pathGraph(t, 6)
	d := newDyn(t, g, Options{MaxStaleFraction: 1})

	b := graph.NewBuilder(false, false)
	b.Grow(6)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(3, 4, 1)
	b.AddEdge(4, 5, 1)
	mutated, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	if err := d.DeleteEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	checkAgainst(t, d, mutated)
}

func TestFullRebuildThreshold(t *testing.T) {
	g := pathGraph(t, 10)
	// A tiny threshold: any suspect at all forces a full rebuild.
	d := newDyn(t, g, Options{MaxStaleFraction: 1e-9})
	if err := d.DeleteEdge(4, 5); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.FullRebuilds != 1 || st.PartialRepairs != 0 {
		t.Errorf("stats = %+v, want the delete to full-rebuild", st)
	}
	if st.DirtyVertices != 0 {
		t.Errorf("dirty vertices = %d, want 0 after a full rebuild", st.DirtyVertices)
	}

	b := graph.NewBuilder(false, false)
	b.Grow(10)
	for i := int32(0); i < 9; i++ {
		if i == 4 {
			continue
		}
		b.AddEdge(i, i+1, 1)
	}
	mutated, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	checkAgainst(t, d, mutated)
}

func TestDirectedInsertDelete(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawParams{N: 40, Density: 2.5, Alpha: 2.2, Directed: true, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	d := newDyn(t, g, Options{MaxStaleFraction: 1})

	// Mirror the mutations in an edge map to rebuild ground truth.
	type edge struct{ u, v int32 }
	edges := map[edge]bool{}
	for u := int32(0); u < g.N(); u++ {
		for _, v := range g.OutNeighbors(u) {
			edges[edge{u, v}] = true
		}
	}
	apply := func(op string, u, v int32) {
		t.Helper()
		if op == "+" {
			if err := d.InsertEdge(u, v, 1); err != nil {
				t.Fatalf("insert %d->%d: %v", u, v, err)
			}
			edges[edge{u, v}] = true
		} else {
			if err := d.DeleteEdge(u, v); err != nil {
				t.Fatalf("delete %d->%d: %v", u, v, err)
			}
			delete(edges, edge{u, v})
		}
		b := graph.NewBuilder(true, false)
		b.Grow(g.N())
		for e := range edges {
			b.AddEdge(e.u, e.v, 1)
		}
		mutated, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		checkAgainst(t, d, mutated)
	}

	// A few targeted mutations, checking exactness after each.
	apply("+", 0, 39)
	apply("+", 39, 3)
	// Delete an existing arc found in the map.
	for e := range edges {
		apply("-", e.u, e.v)
		break
	}
	apply("+", 17, 23)
}

func TestWeightedInsertImproves(t *testing.T) {
	// Weighted triangle: inserting a cheaper parallel edge must improve
	// distances; inserting a worse one must be a no-op.
	b := graph.NewBuilder(false, true)
	b.AddEdge(0, 1, 10)
	b.AddEdge(1, 2, 10)
	b.AddEdge(0, 2, 30)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	d := newDyn(t, g, Options{})

	if err := d.InsertEdge(0, 2, 40); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.NoOps != 1 || st.Inserts != 0 {
		t.Fatalf("worse parallel edge: stats = %+v, want a no-op", st)
	}
	if got := d.Current().Distance(0, 2); got != 20 {
		t.Fatalf("Distance(0,2) = %d, want 20 before the improvement", got)
	}

	if err := d.InsertEdge(0, 2, 5); err != nil {
		t.Fatal(err)
	}
	if got := d.Current().Distance(0, 2); got != 5 {
		t.Fatalf("Distance(0,2) = %d, want 5 after re-weighting", got)
	}
	if got := d.Current().Distance(1, 2); got != 10 {
		t.Fatalf("Distance(1,2) = %d, want 10", got)
	}

	// And deleting the improved edge restores the two-hop route.
	if err := d.DeleteEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	if got := d.Current().Distance(0, 2); got != 20 {
		t.Fatalf("Distance(0,2) = %d, want 20 after the delete", got)
	}
}

func TestUpdateErrors(t *testing.T) {
	g := pathGraph(t, 4)
	d := newDyn(t, g, Options{})

	if err := d.InsertEdge(0, 9, 1); !errors.Is(err, ErrVertexRange) {
		t.Errorf("out-of-range insert: %v, want ErrVertexRange", err)
	}
	if err := d.DeleteEdge(-1, 2); !errors.Is(err, ErrVertexRange) {
		t.Errorf("negative delete: %v, want ErrVertexRange", err)
	}
	if err := d.InsertEdge(2, 2, 1); !errors.Is(err, ErrSelfLoop) {
		t.Errorf("self-loop insert: %v, want ErrSelfLoop", err)
	}
	if err := d.DeleteEdge(0, 2); !errors.Is(err, ErrNoEdge) {
		t.Errorf("missing delete: %v, want ErrNoEdge", err)
	}
	if err := d.InsertEdge(0, 1, 1); err != nil {
		t.Errorf("duplicate insert: %v, want no-op nil", err)
	}
	if st := d.Stats(); st.NoOps != 1 || st.Epoch != 0 {
		t.Errorf("stats = %+v, want one no-op and no published epoch", st)
	}
}

func TestWeightRange(t *testing.T) {
	b := graph.NewBuilder(false, true)
	b.AddEdge(0, 1, 2)
	b.Grow(3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	d := newDyn(t, g, Options{})
	if err := d.InsertEdge(0, 2, graph.MaxWeight+1); err == nil {
		t.Error("oversized weight accepted")
	}
	// w <= 0 means 1 on weighted graphs.
	if err := d.InsertEdge(1, 2, 0); err != nil {
		t.Fatal(err)
	}
	if got := d.Current().Distance(1, 2); got != 1 {
		t.Errorf("Distance(1,2) = %d, want 1", got)
	}
}

func TestNewValidation(t *testing.T) {
	g := pathGraph(t, 4)
	flat := buildFlat(t, g)
	other := pathGraph(t, 5)
	if _, err := New(flat, other, Options{}); err == nil {
		t.Error("vertex-count mismatch accepted")
	}
	dg, err := gen.Path(4, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(flat, dg, Options{}); err == nil {
		t.Error("directedness mismatch accepted")
	}
}

func TestPath(t *testing.T) {
	g := pathGraph(t, 8)
	d := newDyn(t, g, Options{})
	if err := d.InsertEdge(0, 6, 1); err != nil {
		t.Fatal(err)
	}
	// d(0,7) = 2 via the new shortcut: 0-6-7.
	p, err := d.Path(0, 7, nil)
	if err != nil {
		t.Fatalf("Path: %v", err)
	}
	if len(p) != 3 || p[0] != 0 || p[len(p)-1] != 7 {
		t.Fatalf("Path(0,7) = %v, want a 3-vertex path 0..7", p)
	}
	// Every hop must be a live edge, and the hop count must equal the
	// reported distance.
	for i := 0; i+1 < len(p); i++ {
		if _, ok := d.g.weight(d.rank(p[i]), d.rank(p[i+1])); !ok {
			t.Fatalf("path hop (%d,%d) is not an edge", p[i], p[i+1])
		}
	}
	if dist := d.Current().Distance(0, 7); uint32(len(p)-1) != dist {
		t.Fatalf("path length %d != distance %d", len(p)-1, dist)
	}

	// The path answers the CURRENT graph: deleting the shortcut reroutes.
	if err := d.DeleteEdge(0, 6); err != nil {
		t.Fatal(err)
	}
	p, err = d.Path(0, 7, nil)
	if err != nil || len(p) != 8 {
		t.Fatalf("Path(0,7) after delete = %v, %v, want the full 8-vertex path", p, err)
	}

	// Unreachable and out-of-range pairs report wire.ErrUnreachable.
	if err := d.DeleteEdge(3, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Path(0, 7, nil); !errors.Is(err, wire.ErrUnreachable) {
		t.Fatalf("disconnected Path: %v, want ErrUnreachable", err)
	}
	if _, err := d.Path(-1, 3, nil); !errors.Is(err, wire.ErrUnreachable) {
		t.Fatalf("out-of-range Path: %v, want ErrUnreachable", err)
	}
}

func TestStarHubDelete(t *testing.T) {
	// Star: every pair routes through the hub; deleting a spoke isolates
	// a leaf, and almost every root is suspect (threshold 1 still forces
	// the partial-repair path).
	g, err := gen.Star(12)
	if err != nil {
		t.Fatal(err)
	}
	d := newDyn(t, g, Options{MaxStaleFraction: 1})
	b := graph.NewBuilder(false, false)
	b.Grow(12)
	for v := int32(2); v < 12; v++ {
		b.AddEdge(0, v, 1)
	}
	mutated, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.DeleteEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	checkAgainst(t, d, mutated)
}

// TestFullRebuildKeepsBuildOptions: a staleness-forced full rebuild must
// reproduce the regime the index was originally built with (here the
// no-pruning ablation) rather than reverting to zero-value defaults.
func TestFullRebuildKeepsBuildOptions(t *testing.T) {
	g, err := gen.ER(40, 120, false, 17)
	if err != nil {
		t.Fatal(err)
	}
	bopt := core.Options{DisablePruning: true}
	x, _, err := core.Build(g, bopt)
	if err != nil {
		t.Fatal(err)
	}
	// Any suspect forces a full rebuild.
	d, err := New(label.Freeze(x), g, Options{MaxStaleFraction: 1e-9, Build: bopt})
	if err != nil {
		t.Fatal(err)
	}
	// Delete an edge that exists in the ER instance.
	var du, dv int32 = -1, -1
	for u := int32(0); u < g.N() && du < 0; u++ {
		for _, v := range g.OutNeighbors(u) {
			du, dv = u, v
			break
		}
	}
	if err := d.DeleteEdge(du, dv); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.FullRebuilds != 1 {
		t.Fatalf("stats = %+v, want exactly one full rebuild", st)
	}
	// The rebuilt labels must equal a from-scratch no-pruning build of
	// the same rank-space snapshot...
	rg, err := d.g.freeze()
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := core.BuildRanked(rg, bopt)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Current().Flat().Equal(label.Freeze(want)) {
		t.Error("rebuilt labels differ from a from-scratch build with the original options")
	}
	// ...and visibly differ from what a default (pruned) rebuild would
	// have produced — otherwise this test proves nothing.
	pruned, _, err := core.BuildRanked(rg, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Entries() == pruned.Entries() {
		t.Skip("graph too small for pruning to matter; pick a denser instance")
	}
}
