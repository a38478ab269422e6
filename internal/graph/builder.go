package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// MaxWeight bounds edge weights at 2^24. It does not bound distances.
// Distances are uint32 with Infinity = 2^32-1 meaning "no path", so only
// paths of fewer than 256 maximum-weight edges have a representable
// length, and the build and the query merge add two distances in uint32
// unchecked: a sum that reaches 2^32 wraps. ROADMAP item 22's probe, a
// 262-vertex weighted cycle inside this range, answers 0 for two distinct
// vertices. Graphs with long heavy paths should rescale their weights.
const MaxWeight = 1 << 24

// Builder accumulates edges and produces an immutable Graph. It
// normalizes the input: self-loops are dropped, parallel edges are
// collapsed keeping the minimum weight, and adjacency lists are sorted.
type Builder struct {
	directed bool
	weighted bool
	n        int64 // one past the largest id seen; may exceed int32 until Build refuses it
	us, vs   []int32
	ws       []int32 // nil when unweighted
}

// NewBuilder returns a Builder for a graph of the given kind.
func NewBuilder(directed, weighted bool) *Builder {
	return &Builder{directed: directed, weighted: weighted}
}

// Grow declares that vertices [0, n) exist even if some have no edges.
func (b *Builder) Grow(n int32) {
	b.n = max(b.n, int64(n))
}

// AddEdge records an edge u->v (or an undirected edge {u,v}) with weight w.
// For unweighted graphs w is ignored and treated as 1. Negative ids, ids
// whose count overflows int32, and weights outside (0, MaxWeight] are
// rejected at Build time. Self-loops are silently dropped.
func (b *Builder) AddEdge(u, v, w int32) {
	if u == v {
		return
	}
	b.n = max(b.n, int64(u)+1, int64(v)+1)
	b.us = append(b.us, u)
	b.vs = append(b.vs, v)
	if b.weighted {
		b.ws = append(b.ws, w)
	}
}

// EdgeCount returns the number of raw (pre-normalization) edges added.
func (b *Builder) EdgeCount() int { return len(b.us) }

// Build finalizes the graph: a counting sort of the arcs by source, then
// a sort and min-weight dedup of each row. The Builder can be reused
// afterwards only by adding more edges and calling Build again.
func (b *Builder) Build() (*Graph, error) {
	if b.n > math.MaxInt32 {
		return nil, fmt.Errorf("graph: vertex id %d does not fit in int32", b.n-1)
	}
	for i := range b.us {
		if b.us[i] < 0 || b.vs[i] < 0 {
			return nil, fmt.Errorf("graph: negative vertex id in edge (%d,%d)", b.us[i], b.vs[i])
		}
		if b.weighted && (b.ws[i] <= 0 || b.ws[i] > MaxWeight) {
			return nil, fmt.Errorf("graph: weight %d on edge (%d,%d) outside (0, %d]", b.ws[i], b.us[i], b.vs[i], MaxWeight)
		}
	}
	n := int32(b.n)
	sides := 2 // an undirected edge is stored as two arcs
	if b.directed {
		sides = 1
	}
	off := make([]int64, int64(n)+1)
	for i, u := range b.us {
		off[u+1]++
		if sides == 2 {
			off[b.vs[i]+1]++
		}
	}
	for u := range n {
		off[u+1] += off[u]
	}
	adj := make([]int32, off[n])
	var w []int32
	if b.weighted {
		w = make([]int32, off[n])
	}
	// Scatter with off[u] as u's write cursor; afterwards off[u] holds
	// u's end, so shifting by one restores the starts.
	for i, u := range b.us {
		v := b.vs[i]
		for range sides {
			p := off[u]
			off[u]++
			adj[p] = v
			if w != nil {
				w[p] = b.ws[i]
			}
			u, v = v, u
		}
	}
	copy(off[1:], off[:n])
	off[0] = 0
	adj, w = sortRows(off, adj, w)
	return newGraph(b.directed, b.weighted, off, adj, w), nil
}

// sortRows sorts every row of the CSR (off, adj, w) by neighbor and keeps
// one arc per neighbor, the one of minimum weight. Rows shrunk by the dedup
// are packed to the front in place; off is rewritten to match and the
// trimmed adj and w are returned. w is nil for unweighted graphs.
func sortRows(off []int64, adj, w []int32) ([]int32, []int32) {
	var pairs []uint64 // weighted rows sort as (neighbor<<32 | weight)
	if w != nil {
		var maxRow int64
		for u := 1; u < len(off); u++ {
			maxRow = max(maxRow, off[u]-off[u-1])
		}
		pairs = make([]uint64, maxRow)
	}
	var out int64
	for u := 1; u < len(off); u++ {
		lo, hi := off[u-1], off[u]
		off[u-1] = out
		if w == nil {
			row := adj[lo:hi]
			slices.Sort(row)
			k := int64(len(slices.Compact(row)))
			if out != lo {
				copy(adj[out:], row[:k])
			}
			out += k
			continue
		}
		row := pairs[:hi-lo]
		for i := range row {
			row[i] = uint64(adj[lo+int64(i)])<<32 | uint64(w[lo+int64(i)])
		}
		slices.Sort(row)
		for i, p := range row {
			if i > 0 && p>>32 == row[i-1]>>32 {
				continue // a heavier parallel arc
			}
			adj[out], w[out] = int32(p>>32), int32(p)
			out++
		}
	}
	off[len(off)-1] = out
	if out < int64(len(adj)) {
		adj = slices.Clone(adj[:out])
		if w != nil {
			w = slices.Clone(w[:out])
		}
	}
	return adj, w
}

// newGraph wraps a sorted, deduplicated out-side CSR into a Graph and
// derives its in-side: an alias for undirected graphs, the transpose for
// directed ones.
func newGraph(directed, weighted bool, off []int64, adj, w []int32) *Graph {
	g := &Graph{
		directed: directed,
		weighted: weighted,
		n:        int32(len(off) - 1),
		arcs:     int64(len(adj)),
		outOff:   off,
		outAdj:   adj,
		outW:     w,
		inOff:    off,
		inAdj:    adj,
		inW:      w,
	}
	if directed {
		g.inOff, g.inAdj, g.inW = transpose(off, adj, w)
	}
	return g
}

// transpose builds the in-side of a CSR by counting sort over arc targets.
// Sources are visited in increasing order and the sort is stable, so each
// in-row comes out sorted by neighbor.
func transpose(off []int64, adj, w []int32) ([]int64, []int32, []int32) {
	n := int32(len(off) - 1)
	inOff := make([]int64, len(off))
	for _, v := range adj {
		inOff[v+1]++
	}
	for v := range n {
		inOff[v+1] += inOff[v]
	}
	inAdj := make([]int32, len(adj))
	var inW []int32
	if w != nil {
		inW = make([]int32, len(w))
	}
	pos := slices.Clone(inOff[:n])
	for u := range n {
		for i := off[u]; i < off[u+1]; i++ {
			v := adj[i]
			p := pos[v]
			pos[v]++
			inAdj[p] = u
			if inW != nil {
				inW[p] = w[i]
			}
		}
	}
	return inOff, inAdj, inW
}

// FromEdges is a convenience constructor building a graph directly from
// parallel endpoint slices. weights may be nil for unweighted graphs.
func FromEdges(directed bool, n int32, us, vs []int32, weights []int32) (*Graph, error) {
	if len(us) != len(vs) {
		return nil, errors.New("graph: endpoint slices differ in length")
	}
	if weights != nil && len(weights) != len(us) {
		return nil, errors.New("graph: weight slice length mismatch")
	}
	b := NewBuilder(directed, weights != nil)
	b.Grow(n)
	for i := range us {
		w := int32(1)
		if weights != nil {
			w = weights[i]
		}
		b.AddEdge(us[i], vs[i], w)
	}
	return b.Build()
}
