package dynamic

import "repro/internal/graph"

// arc is one adjacency entry of the mutable graph: a neighbor in rank-id
// space and the edge weight (always 1 for unweighted graphs).
type arc struct {
	to int32
	w  int32
}

// mutGraph is the mutable adjacency the dynamic index maintains alongside
// its labels. It lives entirely in rank-id space (the space the labels
// are stored in), so the maintenance searches never translate ids. For
// undirected graphs each edge is stored as two arcs and in aliases out;
// adjacency lists are unsorted (mutations are append/swap-delete).
type mutGraph struct {
	directed bool
	weighted bool
	n        int32
	out      [][]arc
	in       [][]arc // aliases out for undirected graphs
}

// newMutGraph copies g into mutable adjacency, translating original ids
// through perm (nil = identity).
func newMutGraph(g *graph.Graph, perm []int32) *mutGraph {
	n := g.N()
	rank := func(v int32) int32 {
		if perm == nil {
			return v
		}
		return perm[v]
	}
	m := &mutGraph{directed: g.Directed(), weighted: g.Weighted(), n: n}
	m.out = make([][]arc, n)
	for u := int32(0); u < n; u++ {
		adj := g.OutNeighbors(u)
		if len(adj) == 0 {
			continue
		}
		ws := g.OutWeights(u)
		ru := rank(u)
		lst := make([]arc, len(adj))
		for i, v := range adj {
			w := int32(1)
			if ws != nil {
				w = ws[i]
			}
			lst[i] = arc{to: rank(v), w: w}
		}
		m.out[ru] = lst
	}
	if !m.directed {
		m.in = m.out
		return m
	}
	m.in = make([][]arc, n)
	for u := int32(0); u < n; u++ {
		adj := g.InNeighbors(u)
		if len(adj) == 0 {
			continue
		}
		ws := g.InWeights(u)
		ru := rank(u)
		lst := make([]arc, len(adj))
		for i, v := range adj {
			w := int32(1)
			if ws != nil {
				w = ws[i]
			}
			lst[i] = arc{to: rank(v), w: w}
		}
		m.in[ru] = lst
	}
	return m
}

// findArc returns the index of v in u's out-adjacency, or -1.
func (m *mutGraph) findArc(u, v int32) int {
	for i, a := range m.out[u] {
		if a.to == v {
			return i
		}
	}
	return -1
}

// weight returns the weight of arc u->v and whether it exists.
func (m *mutGraph) weight(u, v int32) (int32, bool) {
	if i := m.findArc(u, v); i >= 0 {
		return m.out[u][i].w, true
	}
	return 0, false
}

// addArc inserts or re-weights the directed arc u->v in the out side and
// mirrors it into the in side for directed graphs. Undirected callers
// invoke it twice (u->v and v->u).
func (m *mutGraph) addArc(u, v, w int32) {
	if i := m.findArc(u, v); i >= 0 {
		m.out[u][i].w = w
	} else {
		m.out[u] = append(m.out[u], arc{to: v, w: w})
	}
	if !m.directed {
		return
	}
	for i, a := range m.in[v] {
		if a.to == u {
			m.in[v][i].w = w
			return
		}
	}
	m.in[v] = append(m.in[v], arc{to: u, w: w})
}

// removeArc deletes the directed arc u->v (and its in-side mirror for
// directed graphs), reporting whether it existed.
func (m *mutGraph) removeArc(u, v int32) bool {
	i := m.findArc(u, v)
	if i < 0 {
		return false
	}
	lst := m.out[u]
	lst[i] = lst[len(lst)-1]
	m.out[u] = lst[:len(lst)-1]
	if m.directed {
		for j, a := range m.in[v] {
			if a.to == u {
				ilst := m.in[v]
				ilst[j] = ilst[len(ilst)-1]
				m.in[v] = ilst[:len(ilst)-1]
				break
			}
		}
	}
	return true
}

// freeze converts the mutable adjacency back into an immutable rank-space
// graph.Graph (vertex ids are ranks), for full rebuilds.
func (m *mutGraph) freeze() (*graph.Graph, error) {
	b := graph.NewBuilder(m.directed, m.weighted)
	b.Grow(m.n)
	for u := int32(0); u < m.n; u++ {
		for _, a := range m.out[u] {
			if !m.directed && u > a.to {
				continue // each undirected edge once
			}
			b.AddEdge(u, a.to, a.w)
		}
	}
	return b.Build()
}

// spItem is a priority-queue element for the maintenance searches.
type spItem struct {
	v int32
	d uint32
}

// spQueue is a binary min-heap on d. push and pop sift exactly like
// container/heap (so maintenance visits vertices in the same order it
// always did) without boxing every item into an interface.
type spQueue []spItem

func (q *spQueue) push(it spItem) {
	h := append(*q, it)
	*q = h
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if h[j].d >= h[i].d {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (q *spQueue) pop() spItem {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && h[r].d < h[j].d {
			j = r
		}
		if h[j].d >= h[i].d {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*q = h[:n]
	return h[n]
}

// sssp fills dist (length n) with single-source distances from s over the
// mutable adjacency: out-arcs when forward, in-arcs otherwise (for
// undirected graphs the two coincide). Dijkstra with a binary heap, which
// degrades gracefully to BFS cost on unit weights; delete maintenance
// needs exact old distances, not speed. q is caller-owned heap scratch.
func (m *mutGraph) sssp(s int32, forward bool, dist []uint32, q *spQueue) {
	for i := range dist {
		dist[i] = graph.Infinity
	}
	adj := m.out
	if !forward {
		adj = m.in
	}
	dist[s] = 0
	*q = append((*q)[:0], spItem{v: s, d: 0})
	for len(*q) > 0 {
		it := q.pop()
		if it.d > dist[it.v] {
			continue
		}
		for _, a := range adj[it.v] {
			if nd := it.d + uint32(a.w); nd < dist[a.to] {
				dist[a.to] = nd
				q.push(spItem{v: a.to, d: nd})
			}
		}
	}
}
