package graph

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

type refEdge struct{ u, v, w int32 }

// refBuild is the reference the CSR constructors are checked against: a
// map from each arc to its minimum weight, then one sort of the arcs per
// side. It normalizes like the Builder: self-loops dropped, parallel edges
// collapsed to the lightest, unweighted edges of weight 1.
func refBuild(directed, weighted bool, n int32, edges []refEdge) *Graph {
	minW := map[[2]int32]int32{}
	add := func(u, v, w int32) {
		k := [2]int32{u, v}
		if old, ok := minW[k]; !ok || w < old {
			minW[k] = w
		}
	}
	for _, e := range edges {
		if e.u == e.v {
			continue
		}
		n = max(n, e.u+1, e.v+1)
		w := e.w
		if !weighted {
			w = 1
		}
		add(e.u, e.v, w)
		if !directed {
			add(e.v, e.u, w)
		}
	}
	// rows lays the arcs out by source, or by target when reversed.
	rows := func(reversed bool) ([]int64, []int32, []int32) {
		keys := slices.Collect(maps.Keys(minW))
		if reversed {
			for i := range keys {
				keys[i][0], keys[i][1] = keys[i][1], keys[i][0]
			}
		}
		slices.SortFunc(keys, func(a, b [2]int32) int {
			return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
		})
		off := make([]int64, n+1)
		var adj, ws []int32
		for _, k := range keys {
			off[k[0]+1]++
			adj = append(adj, k[1])
			if weighted {
				if reversed {
					ws = append(ws, minW[[2]int32{k[1], k[0]}])
				} else {
					ws = append(ws, minW[k])
				}
			}
		}
		for v := range n {
			off[v+1] += off[v]
		}
		return off, adj, ws
	}
	g := &Graph{directed: directed, weighted: weighted, n: n, arcs: int64(len(minW))}
	g.outOff, g.outAdj, g.outW = rows(false)
	g.inOff, g.inAdj, g.inW = rows(true)
	return g
}

// sameCSR reports the first difference between two graphs' CSR arrays,
// or nil when they are identical.
func sameCSR(got, want *Graph) error {
	if got.directed != want.directed || got.weighted != want.weighted || got.n != want.n || got.arcs != want.arcs {
		return fmt.Errorf("shape %v (arcs %d), want %v (arcs %d)", got, got.arcs, want, want.arcs)
	}
	for _, c := range []struct {
		name      string
		got, want any
		eq        bool
	}{
		{"outOff", got.outOff, want.outOff, slices.Equal(got.outOff, want.outOff)},
		{"outAdj", got.outAdj, want.outAdj, slices.Equal(got.outAdj, want.outAdj)},
		{"outW", got.outW, want.outW, slices.Equal(got.outW, want.outW)},
		{"inOff", got.inOff, want.inOff, slices.Equal(got.inOff, want.inOff)},
		{"inAdj", got.inAdj, want.inAdj, slices.Equal(got.inAdj, want.inAdj)},
		{"inW", got.inW, want.inW, slices.Equal(got.inW, want.inW)},
	} {
		if !c.eq {
			return fmt.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	if (got.outW == nil) != !got.weighted || (got.inW == nil) != !got.weighted {
		return fmt.Errorf("weights present = %v, want %v", got.outW != nil, got.weighted)
	}
	return nil
}

// randomEdges draws m edges over [0, n) with self-loops and parallel edges
// of differing weights mixed in.
func randomEdges(rng *rand.Rand, n int32, m int) []refEdge {
	edges := make([]refEdge, 0, m)
	for range m {
		e := refEdge{rng.Int32N(n), rng.Int32N(n), 1 + rng.Int32N(40)}
		switch rng.IntN(8) {
		case 0:
			e.v = e.u // self-loop
		case 1, 2:
			if len(edges) > 0 { // parallel edge, possibly reversed, new weight
				p := edges[rng.IntN(len(edges))]
				e.u, e.v = p.u, p.v
				if rng.IntN(2) == 0 {
					e.u, e.v = p.v, p.u
				}
			}
		}
		edges = append(edges, e)
	}
	return edges
}

func buildEdges(t *testing.T, directed, weighted bool, grow int32, edges []refEdge) *Graph {
	t.Helper()
	b := NewBuilder(directed, weighted)
	b.Grow(grow)
	for _, e := range edges {
		b.AddEdge(e.u, e.v, e.w)
	}
	return mustBuild(t, b)
}

// TestBuildMatchesReference checks Builder.Build and Relabel against the
// map-and-sort reference on random graphs of every kind, and that a
// relabel undone by the inverse permutation gives back the original.
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 46))
	for _, directed := range []bool{false, true} {
		for _, weighted := range []bool{false, true} {
			for trial := range 25 {
				name := fmt.Sprintf("directed=%v/weighted=%v/%d", directed, weighted, trial)
				n := 1 + rng.Int32N(60)
				edges := randomEdges(rng, n, rng.IntN(4*int(n)))
				grow := n + rng.Int32N(3) // isolated trailing vertices
				g := buildEdges(t, directed, weighted, grow, edges)
				if err := sameCSR(g, refBuild(directed, weighted, grow, edges)); err != nil {
					t.Fatalf("%s: Build: %v", name, err)
				}

				perm := make([]int32, g.N())
				for i, p := range rng.Perm(int(g.N())) {
					perm[i] = int32(p)
				}
				moved := make([]refEdge, len(edges))
				for i, e := range edges {
					moved[i] = refEdge{perm[e.u], perm[e.v], e.w}
				}
				rg, err := g.Relabel(perm)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameCSR(rg, refBuild(directed, weighted, g.N(), moved)); err != nil {
					t.Fatalf("%s: Relabel: %v", name, err)
				}

				inv := make([]int32, len(perm))
				for v, p := range perm {
					inv[p] = int32(v)
				}
				back, err := rg.Relabel(inv)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameCSR(back, g); err != nil {
					t.Fatalf("%s: Relabel(perm) then Relabel(inverse): %v", name, err)
				}
			}
		}
	}
}

// TestRelabelAllocsConstant pins Relabel to a fixed number of allocations
// (its output arrays and one scratch row), independent of graph size.
func TestRelabelAllocsConstant(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for _, weighted := range []bool{false, true} {
			var counts []float64
			for _, n := range []int32{1_000, 10_000} {
				rng := rand.New(rand.NewPCG(uint64(n), 1))
				g := buildEdges(t, directed, weighted, n, randomEdges(rng, n, 4*int(n)))
				perm := make([]int32, n)
				for i, p := range rng.Perm(int(n)) {
					perm[i] = int32(p)
				}
				counts = append(counts, testing.AllocsPerRun(5, func() {
					if _, err := g.Relabel(perm); err != nil {
						t.Fatal(err)
					}
				}))
			}
			if counts[0] != counts[1] || counts[0] > 12 {
				t.Errorf("directed=%v weighted=%v: Relabel allocs %v at n=1k/10k, want one small constant", directed, weighted, counts)
			}
		}
	}
}

func TestBuilderRejectsIDOverflow(t *testing.T) {
	b := NewBuilder(false, false)
	b.AddEdge(math.MaxInt32, 0, 1)
	if g, err := b.Build(); err == nil {
		t.Fatalf("id 2^31-1 built %v; want an error", g)
	}
	b = NewBuilder(true, false)
	b.AddEdge(0, -3, 1)
	if g, err := b.Build(); err == nil {
		t.Fatalf("negative id built %v; want an error", g)
	}
}
