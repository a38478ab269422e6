package dynamic

import (
	"cmp"
	"slices"

	"repro/internal/graph"
)

// seed is one starting point of a resumed pruned search: vertex v enters
// the frontier at candidate distance d from the root.
type seed struct {
	v int32
	d uint32
}

// prunedSearch runs a pruned shortest-path search for root r over the
// mutable graph, reading and writing the epoch under construction. It
// generalizes the pruned-landmark BFS/Dijkstra in two ways: it can be
// *resumed* — seeded at arbitrary vertices with non-zero candidate
// distances, as insertion maintenance requires — and it serves full
// rebuild-one-root searches by seeding {r, 0}.
//
// forward searches traverse out-arcs and record (r, d) in the In side of
// each reached vertex (covering paths r -> y); backward searches traverse
// in-arcs and record into the Out side (covering y -> r). For undirected
// graphs the two sides alias, and only forward searches are run.
//
// Pruning: a vertex y reached at candidate distance dy is cut when the
// current labels already answer the (r, y) pair at <= dy. Entries are only
// recorded at vertices the root outranks (r < y), preserving the label
// invariant; reaching an unpruned y that outranks r would mean the pair's
// cover through a higher-ranked root is missing — the rank-ascending
// processing order makes that impossible (counted in anomalies as a
// defensive check), and the search then expands without recording.
func (d *Index) prunedSearch(r int32, seeds []seed, forward bool) {
	x := d.next
	adj := d.g.out
	if !forward {
		adj = d.g.in
	}
	visit := d.visit
	d.pq = d.pq[:0]
	q := &d.pq
	for _, s := range seeds {
		if s.d < visit[s.v] {
			if visit[s.v] == graph.Infinity {
				d.touched = append(d.touched, s.v)
			}
			visit[s.v] = s.d
			q.push(spItem{v: s.v, d: s.d})
		}
	}
	for len(*q) > 0 {
		it := q.pop()
		v, dv := it.v, it.d
		if dv > visit[v] {
			continue // superseded by a shorter candidate
		}
		if v == r {
			if dv > 0 {
				continue // looped back to the root: trivially covered
			}
			// Full-search start: expand the root, record nothing.
		} else {
			var have uint32
			if forward {
				have = x.DistanceRanked(r, v)
			} else {
				have = x.DistanceRanked(v, r)
			}
			if have <= dv {
				continue // pruned: the pair is already covered
			}
			if v > r {
				x.insert(forward, v, r, dv)
			} else {
				d.anomalies++ // see doc comment; expand without recording
			}
		}
		for _, a := range adj[v] {
			if nd := dv + uint32(a.w); nd < visit[a.to] {
				if visit[a.to] == graph.Infinity {
					d.touched = append(d.touched, a.to)
				}
				visit[a.to] = nd
				q.push(spItem{v: a.to, d: nd})
			}
		}
	}
	// Reset the visit scratch for the next search.
	for _, v := range d.touched {
		visit[v] = graph.Infinity
	}
	d.touched = d.touched[:0]
}

// rootSeed pairs one maintenance search root with one seed.
type rootSeed struct {
	r       int32
	forward bool
	s       seed
}

// runSeeds groups the collected (root, seed) pairs by root and direction
// and runs one multi-seed pruned search per group, roots ascending by
// rank. The rank order is load-bearing: it guarantees that when a search
// from root r reaches a vertex the root does not outrank, the pair is
// already covered by an earlier (higher-ranked) root, so pruning cuts it.
func (d *Index) runSeeds(batch []rootSeed) {
	// A total order (seeds break ties), so the grouping below does not
	// depend on the sort algorithm.
	slices.SortFunc(batch, func(a, b rootSeed) int {
		if c := cmp.Compare(a.r, b.r); c != 0 {
			return c
		}
		if a.forward != b.forward {
			if a.forward {
				return -1
			}
			return 1
		}
		if c := cmp.Compare(a.s.v, b.s.v); c != 0 {
			return c
		}
		return cmp.Compare(a.s.d, b.s.d)
	})
	seeds := d.seeds
	for i := 0; i < len(batch); {
		j := i
		seeds = seeds[:0]
		for j < len(batch) && batch[j].r == batch[i].r && batch[j].forward == batch[i].forward {
			seeds = append(seeds, batch[j].s)
			j++
		}
		d.prunedSearch(batch[i].r, seeds, batch[i].forward)
		i = j
	}
	d.seeds = seeds[:0]
}

// repairSuspects strips every suspect root's entries from the whole label
// set and recomputes them with full pruned searches against the mutated
// graph, ascending by rank. After the pass all entries are again exact
// distances of the current graph and every vertex pair is covered.
func (d *Index) repairSuspects(suspects []int32) {
	if len(suspects) == 0 {
		return
	}
	drop := d.drop
	for _, r := range suspects {
		drop[r] = true
	}
	x := d.next
	for v := int32(0); v < d.n; v++ {
		x.strip(false, v, drop)
		if d.g.directed {
			x.strip(true, v, drop)
		}
	}
	slices.Sort(suspects)
	for _, r := range suspects {
		d.prunedSearch(r, []seed{{v: r, d: 0}}, true)
		if d.g.directed {
			d.prunedSearch(r, []seed{{v: r, d: 0}}, false)
		}
	}
	for _, r := range suspects {
		drop[r] = false
	}
}
