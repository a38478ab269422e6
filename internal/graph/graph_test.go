package graph

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func mustBuild(t *testing.T, b *Builder) *Graph {
	t.Helper()
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestBuilderBasicsUndirected(t *testing.T) {
	b := NewBuilder(false, false)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 0, 1)
	g := mustBuild(t, b)
	if g.N() != 3 || g.EdgeCount() != 3 || g.Arcs() != 6 {
		t.Fatalf("got N=%d E=%d arcs=%d", g.N(), g.EdgeCount(), g.Arcs())
	}
	for v := int32(0); v < 3; v++ {
		if g.Degree(v) != 2 {
			t.Errorf("deg(%d) = %d, want 2", v, g.Degree(v))
		}
	}
	if !g.HasEdge(1, 0) || !g.HasEdge(0, 1) {
		t.Error("undirected edge must exist in both directions")
	}
}

func TestBuilderBasicsDirected(t *testing.T) {
	b := NewBuilder(true, false)
	b.AddEdge(0, 1, 1)
	b.AddEdge(0, 2, 1)
	b.AddEdge(2, 1, 1)
	g := mustBuild(t, b)
	if g.OutDegree(0) != 2 || g.InDegree(0) != 0 {
		t.Errorf("vertex 0 degrees: out=%d in=%d", g.OutDegree(0), g.InDegree(0))
	}
	if g.InDegree(1) != 2 {
		t.Errorf("in-degree(1) = %d, want 2", g.InDegree(1))
	}
	if g.HasEdge(1, 0) {
		t.Error("directed graph must not have the reverse arc")
	}
}

func TestBuilderNormalization(t *testing.T) {
	b := NewBuilder(true, true)
	b.AddEdge(1, 1, 5)  // self loop dropped
	b.AddEdge(0, 1, 7)  // parallel, heavier
	b.AddEdge(0, 1, 3)  // parallel, lighter -> kept
	b.AddEdge(0, 1, 10) // parallel, heaviest
	g := mustBuild(t, b)
	if g.EdgeCount() != 1 {
		t.Fatalf("edges = %d, want 1 after normalization", g.EdgeCount())
	}
	if w, ok := g.EdgeWeight(0, 1); !ok || w != 3 {
		t.Errorf("weight = (%d,%v), want minimum 3", w, ok)
	}
}

func TestBuilderRejectsBadWeights(t *testing.T) {
	b := NewBuilder(false, true)
	b.AddEdge(0, 1, 0)
	if _, err := b.Build(); err == nil {
		t.Error("zero weight accepted; want error")
	}
	b2 := NewBuilder(false, true)
	b2.AddEdge(0, 1, -4)
	if _, err := b2.Build(); err == nil {
		t.Error("negative weight accepted; want error")
	}
}

func TestAdjacencySorted(t *testing.T) {
	b := NewBuilder(true, false)
	b.AddEdge(0, 5, 1)
	b.AddEdge(0, 2, 1)
	b.AddEdge(0, 9, 1)
	b.AddEdge(0, 1, 1)
	g := mustBuild(t, b)
	adj := g.OutNeighbors(0)
	for i := 1; i < len(adj); i++ {
		if adj[i-1] >= adj[i] {
			t.Fatalf("adjacency not sorted: %v", adj)
		}
	}
	// In-neighbors must be sorted as well.
	in := g.InNeighbors(5)
	if len(in) != 1 || in[0] != 0 {
		t.Errorf("in(5) = %v", in)
	}
}

func TestRelabel(t *testing.T) {
	b := NewBuilder(true, true)
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 2, 3)
	g := mustBuild(t, b)
	perm := []int32{2, 0, 1} // 0->2, 1->0, 2->1
	rg, err := g.Relabel(perm)
	if err != nil {
		t.Fatal(err)
	}
	if w, ok := rg.EdgeWeight(2, 0); !ok || w != 2 {
		t.Errorf("relabel lost edge 0->1: (%d,%v)", w, ok)
	}
	if w, ok := rg.EdgeWeight(0, 1); !ok || w != 3 {
		t.Errorf("relabel lost edge 1->2: (%d,%v)", w, ok)
	}
	if _, err := g.Relabel([]int32{0, 0, 1}); err == nil {
		t.Error("non-permutation accepted")
	}
	if _, err := g.Relabel([]int32{0}); err == nil {
		t.Error("short permutation accepted")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	b := NewBuilder(false, true)
	b.AddEdge(0, 1, 4)
	b.AddEdge(1, 2, 9)
	b.AddEdge(0, 3, 2)
	g := mustBuild(t, b)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf, false, true)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.EdgeCount() != g.EdgeCount() {
		t.Fatalf("round trip changed shape: %v vs %v", g2, g)
	}
	if w, _ := g2.EdgeWeight(1, 2); w != 9 {
		t.Errorf("weight lost in round trip: %d", w)
	}
}

func TestEdgeListParsing(t *testing.T) {
	in := "# comment\n% other comment\n0 1\n\n2 3\n"
	g, err := ReadEdgeList(strings.NewReader(in), false, false)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.EdgeCount() != 2 {
		t.Fatalf("parsed %v", g)
	}
	if _, err := ReadEdgeList(strings.NewReader("0\n"), false, false); err == nil {
		t.Error("single-field line accepted")
	}
	if _, err := ReadEdgeList(strings.NewReader("0 x\n"), false, false); err == nil {
		t.Error("non-numeric target accepted")
	}
	if _, err := ReadEdgeList(strings.NewReader("0 1\n"), false, true); err == nil {
		t.Error("missing weight accepted for weighted graph")
	}
}

// TestFromEdgesQuick property-tests the builder: every added edge must be
// queryable afterwards and degrees must sum to twice the edge count.
func TestFromEdgesQuick(t *testing.T) {
	f := func(raw []uint16) bool {
		var us, vs []int32
		for i := 0; i+1 < len(raw); i += 2 {
			us = append(us, int32(raw[i]%97))
			vs = append(vs, int32(raw[i+1]%97))
		}
		g, err := FromEdges(false, 97, us, vs, nil)
		if err != nil {
			return false
		}
		var degSum int64
		for v := int32(0); v < g.N(); v++ {
			degSum += int64(g.Degree(v))
		}
		if degSum != 2*g.EdgeCount() {
			return false
		}
		for i := range us {
			if us[i] != vs[i] && !g.HasEdge(us[i], vs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestHopDiameter(t *testing.T) {
	b := NewBuilder(false, false)
	for v := int32(0); v < 9; v++ {
		b.AddEdge(v, v+1, 1)
	}
	g := mustBuild(t, b)
	if d, exact := HopDiameter(g, true, 0); d != 9 || !exact {
		t.Errorf("path diameter = (%d,%v), want (9,true)", d, exact)
	}
	// Sampled mode gives a lower bound.
	if d, exact := HopDiameter(g, false, 4); d > 9 || exact {
		t.Errorf("sampled diameter = (%d,%v)", d, exact)
	}
}

func TestStatsOnStar(t *testing.T) {
	b := NewBuilder(false, false)
	for v := int32(1); v < 40; v++ {
		b.AddEdge(0, v, 1)
	}
	g := mustBuild(t, b)
	st := Collect(g, 1000)
	if st.MaxDegree != 39 {
		t.Errorf("max degree = %d", st.MaxDegree)
	}
	if st.HopDiameter != 2 || !st.Exact {
		t.Errorf("diameter = (%d,%v), want (2,true)", st.HopDiameter, st.Exact)
	}
	if st.RankExponent >= 0 {
		t.Errorf("rank exponent = %v, want negative", st.RankExponent)
	}
}

func TestSizeBytesPositive(t *testing.T) {
	b := NewBuilder(true, true)
	b.AddEdge(0, 1, 1)
	g := mustBuild(t, b)
	if g.SizeBytes() <= 0 {
		t.Error("SizeBytes must be positive")
	}
}
