// Package graph provides the compressed-sparse-row graph substrate used by
// every other package in this repository: construction, adjacency access,
// text serialization, relabeling, and the scale-free statistics the
// paper's analysis relies on.
//
// Graphs are static. Vertices are dense int32 identifiers in [0, N).
// Directed graphs keep both out- and in-adjacency so that label
// construction can walk edges in both directions; undirected graphs store
// each edge as two arcs and alias the in-adjacency to the out-adjacency.
// Edge weights are positive int32 values; unweighted graphs have implicit
// weight 1 on every edge.
package graph

import (
	"fmt"
	"math"
	"slices"
)

// Infinity is the distance reported for unreachable vertex pairs.
const Infinity = math.MaxUint32

// Graph is an immutable graph in CSR form.
type Graph struct {
	directed bool
	weighted bool
	n        int32
	arcs     int64 // number of stored arcs (undirected edges count twice)

	outOff []int64
	outAdj []int32
	outW   []int32 // nil when unweighted

	// For undirected graphs the in-side aliases the out-side.
	inOff []int64
	inAdj []int32
	inW   []int32
}

// N returns the number of vertices.
func (g *Graph) N() int32 { return g.n }

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// Weighted reports whether the graph carries explicit edge weights.
func (g *Graph) Weighted() bool { return g.weighted }

// Arcs returns the number of stored arcs. For undirected graphs each edge
// contributes two arcs.
func (g *Graph) Arcs() int64 { return g.arcs }

// EdgeCount returns the number of logical edges: arcs for directed graphs,
// arcs/2 for undirected graphs.
func (g *Graph) EdgeCount() int64 {
	if g.directed {
		return g.arcs
	}
	return g.arcs / 2
}

// OutNeighbors returns the out-neighbor slice of v. The returned slice is
// shared with the graph and must not be modified.
func (g *Graph) OutNeighbors(v int32) []int32 {
	return g.outAdj[g.outOff[v]:g.outOff[v+1]]
}

// OutWeights returns the weights parallel to OutNeighbors(v), or nil for
// unweighted graphs.
func (g *Graph) OutWeights(v int32) []int32 {
	if g.outW == nil {
		return nil
	}
	return g.outW[g.outOff[v]:g.outOff[v+1]]
}

// InNeighbors returns the in-neighbor slice of v.
func (g *Graph) InNeighbors(v int32) []int32 {
	return g.inAdj[g.inOff[v]:g.inOff[v+1]]
}

// InWeights returns the weights parallel to InNeighbors(v), or nil for
// unweighted graphs.
func (g *Graph) InWeights(v int32) []int32 {
	if g.inW == nil {
		return nil
	}
	return g.inW[g.inOff[v]:g.inOff[v+1]]
}

// OutDegree returns the number of out-neighbors of v.
func (g *Graph) OutDegree(v int32) int32 { return int32(g.outOff[v+1] - g.outOff[v]) }

// InDegree returns the number of in-neighbors of v.
func (g *Graph) InDegree(v int32) int32 { return int32(g.inOff[v+1] - g.inOff[v]) }

// Degree returns the undirected degree of v: the out-degree for undirected
// graphs and the sum of in- and out-degree for directed graphs.
func (g *Graph) Degree(v int32) int32 {
	if g.directed {
		return g.OutDegree(v) + g.InDegree(v)
	}
	return g.OutDegree(v)
}

// HasEdge reports whether an arc u->v exists, using binary search over the
// sorted adjacency.
func (g *Graph) HasEdge(u, v int32) bool {
	_, ok := slices.BinarySearch(g.OutNeighbors(u), v)
	return ok
}

// EdgeWeight returns the weight of arc u->v and whether it exists.
// Unweighted edges report weight 1.
func (g *Graph) EdgeWeight(u, v int32) (int32, bool) {
	i, ok := slices.BinarySearch(g.OutNeighbors(u), v)
	if !ok {
		return 0, false
	}
	if g.outW == nil {
		return 1, true
	}
	return g.outW[g.outOff[u]+int64(i)], true
}

// MaxDegree returns the maximum Degree over all vertices, or 0 for an
// empty graph.
func (g *Graph) MaxDegree() int32 {
	var best int32
	for v := int32(0); v < g.n; v++ {
		if d := g.Degree(v); d > best {
			best = d
		}
	}
	return best
}

// SizeBytes returns the in-memory CSR footprint used as the paper's
// "|G| (MB)" column: offsets, adjacency, and weights when present, for
// both directions actually stored.
func (g *Graph) SizeBytes() int64 {
	size := int64(len(g.outOff))*8 + int64(len(g.outAdj))*4 + int64(len(g.outW))*4
	if g.directed {
		size += int64(len(g.inOff))*8 + int64(len(g.inAdj))*4 + int64(len(g.inW))*4
	}
	return size
}

// String implements fmt.Stringer with a short structural summary.
func (g *Graph) String() string {
	kind := "undirected"
	if g.directed {
		kind = "directed"
	}
	w := "unweighted"
	if g.weighted {
		w = "weighted"
	}
	return fmt.Sprintf("graph{%s %s |V|=%d |E|=%d}", kind, w, g.n, g.EdgeCount())
}

// Relabel returns a copy of g with vertex v renamed to perm[v]. perm must
// be a permutation of [0, N). The CSR is permuted directly: rows move to
// their new positions, neighbors are mapped through perm, and each row is
// re-sorted with its weights.
func (g *Graph) Relabel(perm []int32) (*Graph, error) {
	if int32(len(perm)) != g.n {
		return nil, fmt.Errorf("graph: permutation length %d != |V| %d", len(perm), g.n)
	}
	seen := make([]bool, g.n)
	for _, p := range perm {
		if p < 0 || p >= g.n || seen[p] {
			return nil, fmt.Errorf("graph: perm is not a permutation (value %d)", p)
		}
		seen[p] = true
	}
	off := make([]int64, len(g.outOff))
	for u, p := range perm {
		off[p+1] = g.outOff[u+1] - g.outOff[u]
	}
	for v := range g.n {
		off[v+1] += off[v]
	}
	adj := make([]int32, len(g.outAdj))
	var w []int32
	if g.outW != nil {
		w = make([]int32, len(g.outW))
	}
	for u, p := range perm {
		lo, hi, dst := g.outOff[u], g.outOff[u+1], off[p]
		for i, v := range g.outAdj[lo:hi] {
			adj[dst+int64(i)] = perm[v]
		}
		if w != nil {
			copy(w[dst:], g.outW[lo:hi])
		}
	}
	adj, w = sortRows(off, adj, w) // a permutation leaves no duplicates
	return newGraph(g.directed, g.weighted, off, adj, w), nil
}
