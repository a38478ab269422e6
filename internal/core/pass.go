package core

import (
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/label"
)

// One iteration is one pass over the previous iteration's new entries
// grouped by pivot. Every rule, stepping (Section 5.1) and doubling
// (Section 3.2) alike, extends a prev entry (u, v, d) to candidates with
// pivot v, so a pivot's group yields every candidate for that pivot and
// nothing else. The pass keeps the minimum distance per owner as rule
// firings arrive and tests each distinct candidate against the labels of
// earlier iterations before storing it: no candidate list is
// materialised or sorted.
//
// Pivots are cut into contiguous ranges of about rangeEntries prev
// entries, independent of the worker count, and workers claim ranges
// through an atomic counter. Survivors are concatenated in range order
// and inserted at the iteration boundary, so a pass reads only labels of
// earlier iterations and its result cannot depend on the worker count
// or on scheduling. Serial is the one-worker case of the same code.

// rangeEntries is the number of prev entries a work unit gathers before
// it is cut at the next pivot boundary.
const rangeEntries = 256

// effectiveWorkers resolves a requested Parallelism to the worker count
// a build actually uses: clamped to [1, 2*GOMAXPROCS]. The clamp is
// recorded in BuildStats.Workers so callers can see what they got.
func effectiveWorkers(parallelism int) int {
	w := parallelism
	if w < 1 {
		w = 1
	}
	if max := runtime.GOMAXPROCS(0) * 2; w > max {
		w = max
	}
	return w
}

// distTable is a versioned vertex -> distance map; reset empties it in
// O(1).
type distTable struct {
	dist []uint32
	ver  []int32
	cur  int32
}

func newDistTable(n int32) distTable {
	return distTable{dist: make([]uint32, n), ver: make([]int32, n)}
}

// reset empties the table. Before the version counter would wrap it
// restarts from a cleared table.
func (t *distTable) reset() {
	if t.cur == math.MaxInt32 {
		clear(t.ver)
		t.cur = 0
	}
	t.cur++
}

// side is one label family and its share of the iteration state.
// Candidates are owned by rows of same; the doubling partners (Rules
// 1/4) and the pruning witnesses are rows of opposite; Rules 2/5 walk
// inverted, this family's pivot -> owners lists; stepping walks adj, a
// prev owner's in-edges on the out side and out-edges on the in side.
type side struct {
	same, opposite [][]label.Entry
	inverted       [][]ownerDist
	adj, weights   func(int32) []int32
	// prev holds the entries the last iteration added to this family.
	prev []cand
	// sorted is scratch for bucket: bucket v is
	// sorted[start[v]:start[v+1]].
	sorted []cand
	start  []int32
}

// bucket stably counting-sorts cs into s.sorted by owner (byOwner) or
// by pivot, in O(n + len(cs)).
func (s *side) bucket(cs []cand, n int32, byOwner bool) {
	key := func(c cand) int32 {
		if byOwner {
			return c.owner
		}
		return c.pivot
	}
	s.start = slices.Grow(s.start[:0], int(n)+1)[:n+1]
	clear(s.start)
	for _, c := range cs {
		s.start[key(c)+1]++
	}
	for v := int32(1); v <= n; v++ {
		s.start[v] += s.start[v-1]
	}
	s.sorted = slices.Grow(s.sorted[:0], len(cs))[:len(cs)]
	for _, c := range cs {
		k := key(c)
		s.sorted[s.start[k]] = c
		s.start[k]++
	}
	// Each start[v] now ends bucket v; shift them back to beginnings.
	copy(s.start[1:], s.start[:n])
	s.start[0] = 0
}

func (s *side) size(v int32) int32 { return s.start[v+1] - s.start[v] }

// insert adds s.prev, which must be pivot-ascending with at most one
// entry per (owner, pivot), to the rows and the inverted lists.
// Regrouped stably by owner, each row takes its new entries, still
// pivot-ascending, in one backward merge.
func (s *side) insert(n int32) {
	for lo := 0; lo < len(s.prev); {
		v := s.prev[lo].pivot
		hi := lo + 1
		for hi < len(s.prev) && s.prev[hi].pivot == v {
			hi++
		}
		inv := slices.Grow(s.inverted[v], hi-lo)
		for _, c := range s.prev[lo:hi] {
			inv = append(inv, ownerDist{c.owner, c.dist})
		}
		s.inverted[v] = inv
		lo = hi
	}
	s.bucket(s.prev, n, true)
	for x := int32(0); x < n; x++ {
		if news := s.sorted[s.start[x]:s.start[x+1]]; len(news) > 0 {
			s.same[x] = mergeRow(s.same[x], news)
		}
	}
}

// mergeRow merges news, pivot-ascending with distinct pivots, into the
// pivot-sorted row, keeping the smaller distance for a pivot already
// present. It reuses news as scratch.
func mergeRow(row []label.Entry, news []cand) []label.Entry {
	fresh := news[:0]
	i := 0
	for _, c := range news {
		for i < len(row) && row[i].Pivot < c.pivot {
			i++
		}
		if i < len(row) && row[i].Pivot == c.pivot {
			row[i].Dist = min(row[i].Dist, c.dist)
		} else {
			fresh = append(fresh, c)
		}
	}
	i = len(row) - 1
	row = slices.Grow(row, len(fresh))[:len(row)+len(fresh)]
	for k, j := len(row)-1, len(fresh)-1; j >= 0; k-- {
		if i >= 0 && row[i].Pivot > fresh[j].pivot {
			row[k] = row[i]
			i--
		} else {
			row[k] = label.Entry{Pivot: fresh[j].pivot, Dist: fresh[j].dist}
			j--
		}
	}
	return row
}

// worker is one goroutine's scratch, allocated once per build.
type worker struct {
	best    distTable // owner -> minimum candidate distance for the current pivot
	witness distTable // pivot -> distance in the current pivot's opposite row
	touched []int32   // owners in best, in arrival order
	kept    [2][]cand // survivors per side, ranges back to back
	raw     int64
	cands   int64
}

// offer records one rule firing: candidate (x, current pivot, d).
func (w *worker) offer(x int32, d uint32) {
	w.raw++
	b := &w.best
	if b.ver[x] != b.cur {
		b.ver[x], b.dist[x] = b.cur, d
		w.touched = append(w.touched, x)
	} else if d < b.dist[x] {
		b.dist[x] = d
	}
}

// expand runs pivot v's group of s: every rule firing is offered to the
// best table, then each distinct candidate is tested against the labels
// of earlier iterations, and survivors are appended to kept.
func (w *worker) expand(s *side, v int32, stepping bool, opt *Options, kept []cand) []cand {
	group := s.sorted[s.start[v]:s.start[v+1]]
	if len(group) == 0 {
		return kept
	}
	w.best.reset()
	w.touched = w.touched[:0]
	for _, c := range group {
		u, d := c.owner, c.dist
		if stepping {
			ws := s.weights(u)
			for i, x := range s.adj(u) {
				if x > v {
					step := uint32(1)
					if ws != nil {
						step = uint32(ws[i])
					}
					w.offer(x, d+step)
				}
			}
			continue
		}
		// Rules 1/4: partner paths between x and u recorded in u's
		// opposite row with pivot x, constraint id(v) < id(x) < id(u).
		partners := s.opposite[u]
		i := sort.Search(len(partners), func(i int) bool { return partners[i].Pivot > v })
		for _, p := range partners[i:] {
			w.offer(p.Pivot, d+p.Dist)
		}
		// Rules 2/5: partner paths recorded in the same-side rows of
		// owners x with pivot u; id(x) > id(u) > id(v) holds by the
		// label invariants.
		for _, od := range s.inverted[u] {
			w.offer(od.owner, d+od.dist)
		}
	}
	w.cands += int64(len(w.touched))

	if opt.DisablePruning {
		// Without the pruning step, still drop candidates that do not
		// improve an existing entry for the same pair; without this the
		// process would not terminate.
		kept = reserve(kept, len(w.touched))
		for _, x := range w.touched {
			d := w.best.dist[x]
			if old, ok := label.Lookup(s.same[x], v); !ok || d < old {
				kept = append(kept, cand{x, v, d})
			}
		}
		return kept
	}
	// Pruning (Section 3.3): drop (x, v, d) when some pivot p has
	// same[x][p] + opposite[v][p] <= d, including p = v itself (the
	// existing entry for the pair). opposite[v] holds only pivots below
	// v, so x's row is scanned only up to v.
	wt := &w.witness
	wt.reset()
	wt.dist[v], wt.ver[v] = 0, wt.cur
	for _, en := range s.opposite[v] {
		wt.dist[en.Pivot], wt.ver[en.Pivot] = en.Dist, wt.cur
	}
	kept = reserve(kept, len(w.touched))
	for _, x := range w.touched {
		d := w.best.dist[x]
		covered := false
		for _, en := range s.same[x] {
			if en.Pivot > v {
				break
			}
			if wt.ver[en.Pivot] == wt.cur && wt.dist[en.Pivot]+en.Dist <= d {
				covered = true
				break
			}
		}
		if !covered {
			kept = append(kept, cand{x, v, d})
		}
	}
	return kept
}

// reserve returns buf with room for n more candidates, doubling its
// capacity when it must reallocate: append grows large slices by only
// 1.25x, which would copy a million-entry buffer many times over.
func reserve(buf []cand, n int) []cand {
	if cap(buf)-len(buf) >= n {
		return buf
	}
	return slices.Grow(buf, max(n, cap(buf)))
}

// span locates one work unit's survivors in its worker's kept buffers.
type span struct {
	w      *worker
	lo, hi [2]int
}

// pass runs one iteration: it replaces each side's prev with the
// iteration's survivors, pivot-ascending, and returns the number of rule
// firings and of distinct candidates. It writes no label.
func (e *engine) pass(stepping bool) (raw, cands int64) {
	n := e.g.N()
	sides := e.sides
	for _, s := range sides {
		s.bucket(s.prev, n, false)
	}
	// Work unit r covers pivots [bounds[r], bounds[r+1]).
	bounds := []int32{0}
	acc := int32(0)
	for v := int32(0); v < n; v++ {
		for _, s := range sides {
			acc += s.size(v)
		}
		if acc >= rangeEntries || v == n-1 {
			bounds = append(bounds, v+1)
			acc = 0
		}
	}
	spans := make([]span, len(bounds)-1)

	workers := min(effectiveWorkers(e.opt.Parallelism), len(spans))
	for len(e.workers) < workers {
		e.workers = append(e.workers, &worker{best: newDistTable(n), witness: newDistTable(n)})
	}
	var next atomic.Int64
	run := func(w *worker) {
		for {
			r := int(next.Add(1)) - 1
			if r >= len(spans) {
				return
			}
			sp := span{w: w}
			for i, s := range sides {
				sp.lo[i] = len(w.kept[i])
				for v := bounds[r]; v < bounds[r+1]; v++ {
					w.kept[i] = w.expand(s, v, stepping, &e.opt, w.kept[i])
				}
				sp.hi[i] = len(w.kept[i])
			}
			spans[r] = sp
		}
	}
	ws := e.workers[:workers]
	for _, w := range ws {
		w.kept[0], w.kept[1] = w.kept[0][:0], w.kept[1][:0]
		w.raw, w.cands = 0, 0
	}
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	wg.Wait()
	for _, w := range ws {
		raw += w.raw
		cands += w.cands
	}
	for i, s := range sides {
		total := 0
		for _, sp := range spans {
			total += sp.hi[i] - sp.lo[i]
		}
		s.prev = slices.Grow(s.prev[:0], total)
		for _, sp := range spans {
			s.prev = append(s.prev, sp.w.kept[i][sp.lo[i]:sp.hi[i]]...)
		}
	}
	return raw, cands
}
