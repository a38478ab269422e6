package main

import (
	"fmt"
	"math/rand"
	"sort"

	hopdb "repro"
	"repro/internal/graph"
	"repro/internal/sp"
)

// Input sizes. The program under test only ever sees what is generated
// here; the run seed drives every stream below.
const (
	uniformPoolSize = 1 << 16 // uniform query pairs per run
	zipfPoolSize    = 1 << 18 // zipf-drawn pairs: working set well past the 16384-entry cache
	oracleSources   = 64      // single-source searches behind the truth sample
	oracleTargets   = 16      // targets checked per source: 1,024 pairs in all
	batchPairs      = 256     // pairs per /v1/batch request
	zipfExponent    = 1.1
)

// subSeed derives an independent stream seed from the run seed, so the
// pair pool, the zipf stream and the update schedule do not share one
// generator (adding a draw to one must not shift the others).
func subSeed(seed int64, stream int64) int64 {
	return seed*1000003 + stream*7919 + 17
}

// newStream returns the generator of one input stream of a run.
func newStream(seed, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(subSeed(seed, stream)))
}

// pairPool is a fixed sequence of query pairs plus the answers the
// in-process heap index gives for them; load generators walk it
// cyclically and check every served answer against expect.
type pairPool struct {
	pairs  []hopdb.QueryPair
	expect []uint32
}

// fillExpect answers every pool pair on the reference index.
func (p *pairPool) fillExpect(ref hopdb.Querier) {
	p.expect = make([]uint32, len(p.pairs))
	for i, q := range p.pairs {
		p.expect[i], _ = ref.Distance(q.S, q.T)
	}
}

// viaQuerier adapts a Querier to the plain distance function the kernels
// have.
func viaQuerier(q hopdb.Querier) func(s, t int32) uint32 {
	return func(s, t int32) uint32 {
		d, _ := q.Distance(s, t)
		return d
	}
}

// truthSample is the oracle: pairs whose exact distance was computed
// from the graph itself by internal/sp, independent of any index.
type truthSample struct {
	pairs []hopdb.QueryPair
	dist  []uint32
}

// newTruthSample runs oracleSources single-source searches on g (BFS, or
// Dijkstra when weighted) and keeps oracleTargets random targets of
// each.
func newTruthSample(g *graph.Graph, rng *rand.Rand) *truthSample {
	n := g.N()
	ts := &truthSample{}
	dist := make([]uint32, n)
	for i := 0; i < oracleSources; i++ {
		s := rng.Int31n(n)
		if g.Weighted() {
			sp.DijkstraFrom(g, s, dist)
		} else {
			sp.BFSFrom(g, s, dist)
		}
		for j := 0; j < oracleTargets; j++ {
			t := rng.Int31n(n)
			ts.pairs = append(ts.pairs, hopdb.QueryPair{S: s, T: t})
			ts.dist = append(ts.dist, dist[t])
		}
	}
	return ts
}

// check answers every truth pair with dist and counts mismatches as
// failed operations.
func (ts *truthSample) check(dist func(s, t int32) uint32, what string, chk *checker) {
	for i, p := range ts.pairs {
		d := dist(p.S, p.T)
		chk.expect(d == ts.dist[i], "%s: d(%d,%d)=%d, oracle says %d", what, p.S, p.T, d, ts.dist[i])
	}
}

// uniformPool draws size uniform random pairs; the truth sample's pairs
// lead the pool so served answers for them are checked transitively
// against the oracle.
func uniformPool(n int32, size int, ts *truthSample, rng *rand.Rand) *pairPool {
	p := &pairPool{pairs: make([]hopdb.QueryPair, 0, size)}
	p.pairs = append(p.pairs, ts.pairs...)
	for len(p.pairs) < size {
		p.pairs = append(p.pairs, hopdb.QueryPair{S: rng.Int31n(n), T: rng.Int31n(n)})
	}
	p.pairs = p.pairs[:size]
	return p
}

// degreeRanked returns the vertices of g by non-increasing degree, ties
// by id: position 0 is the biggest hub.
func degreeRanked(g *graph.Graph) []int32 {
	n := g.N()
	vs := make([]int32, n)
	for i := range vs {
		vs[i] = int32(i)
	}
	sort.Slice(vs, func(i, j int) bool {
		di, dj := g.Degree(vs[i]), g.Degree(vs[j])
		if di != dj {
			return di > dj
		}
		return vs[i] < vs[j]
	})
	return vs
}

// zipfPool draws size pairs whose endpoints follow zipf(s=1.1) over the
// degree ranking: traffic on a scale-free network concentrates on its
// hubs, so a few pairs are very hot and the tail is long.
func zipfPool(g *graph.Graph, size int, rng *rand.Rand) *pairPool {
	byDeg := degreeRanked(g)
	z := rand.NewZipf(rng, zipfExponent, 1, uint64(len(byDeg)-1))
	p := &pairPool{pairs: make([]hopdb.QueryPair, size)}
	for i := range p.pairs {
		p.pairs[i] = hopdb.QueryPair{S: byDeg[z.Uint64()], T: byDeg[z.Uint64()]}
	}
	return p
}

// edgeOp is one step of an update schedule.
type edgeOp struct {
	Insert bool
	U, V   int32
	// Class names the cost class the schedule chose the op for: 'i' an
	// insert, 'p' a delete expected to be absorbed by a partial repair,
	// 'r' a delete expected to escalate to a full rebuild.
	Class byte
}

// edgeKey identifies an edge of a workload graph; undirected edges are
// keyed smaller endpoint first.
type edgeKey struct{ u, v int32 }

func keyOf(g *graph.Graph, u, v int32) edgeKey {
	if !g.Directed() && u > v {
		u, v = v, u
	}
	return edgeKey{u, v}
}

// scheduleSpec sizes an update schedule.
type scheduleSpec struct {
	Inserts int
	Deletes int // spread evenly through the inserts, alternating 'p' and 'r'
}

// Suspect-share targets for the two delete classes. dynamic.DeleteEdge
// rebuilds from scratch once the roots with a shortest path through the
// edge (plus earlier dirt) pass a quarter of the vertices; a delete's
// cost therefore depends almost entirely on that share, and drawing
// edges blindly makes the number of rebuilds — and update_s — vary
// several-fold from seed to seed. The schedule instead estimates the
// share on the original graph and picks edges on a known side of the
// threshold.
const (
	partialTarget  = 0.05 // 'p': inserted edge with about this suspect share
	rebuildAtLeast = 0.60 // 'r': original edge with at least this suspect share
	classTries     = 48   // candidate edges examined per delete
	// siblingMaxDegree bounds the degree of a 'p' edge's endpoints: two
	// hubs' neighbours of low degree mostly reach the graph through the
	// hub (shares from 0 to 0.15 on the GLP graphs), richer ones do not.
	siblingMaxDegree = 4
)

// suspectShare estimates the share of roots dynamic.DeleteEdge would
// find suspect for the edge a-b (arc a->b when directed), whether the
// edge is in g or about to be inserted: the roots from which the edge is
// tight. Undirected that is d(r,a) != d(r,b); directed it is
// d(r,a) < d(r,b) for forward trees or d(b,r) < d(a,r) for backward
// ones. scratch holds four slices of length g.N().
func suspectShare(g *graph.Graph, a, b int32, scratch [4][]uint32) float64 {
	n := int(g.N())
	count := 0
	if !g.Directed() {
		da, db := scratch[0], scratch[1]
		sp.BFSFrom(g, a, da)
		sp.BFSFrom(g, b, db)
		for r := 0; r < n; r++ {
			if da[r] != db[r] {
				count++
			}
		}
		return float64(count) / float64(n)
	}
	toA, toB, fromA, fromB := scratch[0], scratch[1], scratch[2], scratch[3]
	sp.BFSFromReverse(g, a, toA)
	sp.BFSFromReverse(g, b, toB)
	sp.BFSFrom(g, a, fromA)
	sp.BFSFrom(g, b, fromB)
	for r := 0; r < n; r++ {
		if toA[r] < toB[r] || fromB[r] < fromA[r] {
			count++
		}
	}
	return float64(count) / float64(n)
}

// newSchedule builds the fixed, seed-derived update schedule for g:
// spec.Inserts insertions of non-edges, and after every
// (Inserts/Deletes)-th insert one delete — alternately the edge just
// inserted (chosen so its removal is a partial repair) and an original
// edge whose removal forces a rebuild. It needs an unweighted graph.
func newSchedule(g *graph.Graph, spec scheduleSpec, rng *rand.Rand) ([]edgeOp, error) {
	if g.Weighted() {
		return nil, fmt.Errorf("update schedule: weighted graphs are not supported")
	}
	n := g.N()
	if int64(spec.Inserts) > int64(n)*int64(n-1)/4 {
		return nil, fmt.Errorf("update schedule: %d inserts do not fit a %d-vertex graph", spec.Inserts, n)
	}
	used := make(map[edgeKey]bool) // inserted or deleted by an earlier op
	free := func(u, v int32) bool {
		return u != v && !g.HasEdge(u, v) && !used[keyOf(g, u, v)]
	}
	var scratch [4][]uint32
	for i := range scratch {
		scratch[i] = make([]uint32, n)
	}

	// partialEdge picks a non-edge between two low-degree neighbours of
	// a hub (reached degree-biased, as a random vertex's neighbour):
	// such siblings see most of the graph at equal distance through the
	// hub, so few roots are suspect. Of classTries candidates the one
	// closest to the target share wins.
	partialEdge := func() (edgeKey, bool) {
		best, bestGap, found := edgeKey{}, 2.0, false
		for draws, tried := 0, 0; draws < classTries*400 && tried < classTries; draws++ {
			via := g.OutNeighbors(rng.Int31n(n))
			if len(via) == 0 {
				continue
			}
			nb := g.OutNeighbors(via[rng.Intn(len(via))])
			if len(nb) < 2 {
				continue
			}
			a, b := nb[rng.Intn(len(nb))], nb[rng.Intn(len(nb))]
			if !free(a, b) || g.Degree(a) > siblingMaxDegree || g.Degree(b) > siblingMaxDegree {
				continue
			}
			tried++
			gap := suspectShare(g, a, b, scratch) - partialTarget
			if gap < 0 {
				gap = -gap
			}
			if gap < bestGap {
				best, bestGap, found = edgeKey{a, b}, gap, true
			}
		}
		return best, found
	}
	// rebuildEdge picks an original edge most roots have a shortest path
	// through (typically the only edge of a low-degree vertex).
	rebuildEdge := func() (edgeKey, bool) {
		best, bestShare, found := edgeKey{}, -1.0, false
		for try := 0; try < classTries && bestShare < rebuildAtLeast; try++ {
			a := rng.Int31n(n)
			nb := g.OutNeighbors(a)
			if len(nb) == 0 {
				continue
			}
			b := nb[rng.Intn(len(nb))]
			if used[keyOf(g, a, b)] {
				continue
			}
			if share := suspectShare(g, a, b, scratch); share > bestShare {
				best, bestShare, found = edgeKey{a, b}, share, true
			}
		}
		return best, found
	}

	every := 0
	if spec.Deletes > 0 {
		every = spec.Inserts / spec.Deletes
		if every == 0 {
			return nil, fmt.Errorf("update schedule: %d deletes need at least as many inserts", spec.Deletes)
		}
	}
	ops := make([]edgeOp, 0, spec.Inserts+spec.Deletes)
	deletes := 0
	for i := 1; i <= spec.Inserts; i++ {
		deleteNow := every > 0 && i%every == 0 && deletes < spec.Deletes
		partial := deleteNow && deletes%2 == 0
		var e edgeKey
		if partial {
			e, partial = partialEdge()
		}
		if !partial {
			for {
				u, v := rng.Int31n(n), rng.Int31n(n)
				if free(u, v) {
					e = edgeKey{u, v}
					break
				}
			}
		}
		used[keyOf(g, e.u, e.v)] = true
		ops = append(ops, edgeOp{Insert: true, U: e.u, V: e.v, Class: 'i'})
		if !deleteNow {
			continue
		}
		deletes++
		if partial {
			ops = append(ops, edgeOp{U: e.u, V: e.v, Class: 'p'})
			continue
		}
		if re, ok := rebuildEdge(); ok {
			used[keyOf(g, re.u, re.v)] = true
			ops = append(ops, edgeOp{U: re.u, V: re.v, Class: 'r'})
		}
	}
	return ops, nil
}

// applySchedule returns g after every op of ops: the graph the final
// label epoch must answer for.
func applySchedule(g *graph.Graph, ops []edgeOp) (*graph.Graph, error) {
	present := make(map[edgeKey]bool) // every edge an op touched: is it there at the end?
	for _, op := range ops {
		present[keyOf(g, op.U, op.V)] = op.Insert
	}
	b := graph.NewBuilder(g.Directed(), false)
	b.Grow(g.N())
	for u := int32(0); u < g.N(); u++ {
		for _, v := range g.OutNeighbors(u) {
			if !g.Directed() && u > v {
				continue // each undirected edge once
			}
			if there, touched := present[edgeKey{u, v}]; there || !touched {
				b.AddEdge(u, v, 1)
			}
		}
	}
	for k, there := range present {
		if there && !g.HasEdge(k.u, k.v) {
			b.AddEdge(k.u, k.v, 1)
		}
	}
	return b.Build()
}
