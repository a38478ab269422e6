// Package label defines the 2-hop label index produced by every labeling
// algorithm in this repository (HopDb, PLL, IS-Label): per-vertex pivot
// lists, the merge-join distance query, label-size and hitting-set
// statistics (paper Table 7 and Figure 8), and binary serialization.
//
// Vertices inside an Index are numbered by rank: id 0 is the highest
// ranked vertex, and every non-trivial label entry's pivot id is smaller
// than its owner id. Trivial (v, 0) self-entries are implicit; queries
// account for them without storing them.
package label

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// Entry is one label entry: a pivot vertex and the exact distance between
// the owner and the pivot along the covered trough path.
type Entry struct {
	Pivot int32
	Dist  uint32
}

// Index is a complete 2-hop labeling for a graph.
type Index struct {
	// Directed records whether Out and In are distinct label families.
	Directed bool
	// Weighted records whether the indexed graph had explicit weights.
	Weighted bool
	// N is the number of vertices.
	N int32
	// Out[v] holds entries (u, d) covering trough paths v -> u with
	// rank(u) > rank(v), sorted by pivot id. For undirected graphs Out
	// is the single label family and In aliases it.
	Out [][]Entry
	// In[v] holds entries (u, d) covering trough paths u -> v with
	// rank(u) > rank(v), sorted by pivot id.
	In [][]Entry
	// Perm maps original vertex ids to rank ids; nil means identity.
	Perm []int32
	// Inv maps rank ids back to original ids; nil means identity.
	Inv []int32
}

// NewIndex allocates an empty index for n vertices.
func NewIndex(n int32, directed, weighted bool) *Index {
	idx := &Index{Directed: directed, Weighted: weighted, N: n}
	idx.Out = make([][]Entry, n)
	if directed {
		idx.In = make([][]Entry, n)
	} else {
		idx.In = idx.Out
	}
	return idx
}

// SetPerm installs the original-id <-> rank-id mapping.
func (x *Index) SetPerm(perm []int32) {
	x.Perm = perm
	inv := make([]int32, len(perm))
	for v, r := range perm {
		inv[r] = int32(v)
	}
	x.Inv = inv
}

// rankOf translates an original id to the internal rank id.
func (x *Index) rankOf(v int32) int32 {
	if x.Perm == nil {
		return v
	}
	return x.Perm[v]
}

// Distance answers a point-to-point distance query for original vertex
// ids, returning graph.Infinity when t is unreachable from s.
func (x *Index) Distance(s, t int32) uint32 {
	if s < 0 || t < 0 || s >= x.N || t >= x.N {
		return graph.Infinity
	}
	return x.DistanceRanked(x.rankOf(s), x.rankOf(t))
}

// DistanceRanked answers a query in internal rank-id space.
func (x *Index) DistanceRanked(s, t int32) uint32 {
	if s == t {
		return 0
	}
	return MergeDistance(x.Out[s], x.In[t], s, t)
}

// MergeDistance evaluates a 2-hop query over raw label slices: the
// out-label of s and the in-label of t, both pivot-sorted, with the
// implicit trivial (s, 0) and (t, 0) entries accounted for. Shared by the
// in-memory flat and nested indexes, the disk index, and the bit-parallel
// normal labels.
//
// It exploits the rank invariant every stored label obeys (pivots
// strictly outrank their owner: pivot id < owner id): the lower-ranked
// endpoint can never appear as a pivot in the higher-ranked endpoint's
// list, so at most one trivial-pivot binary search is needed per query.
func MergeDistance(outS, inT []Entry, s, t int32) uint32 {
	best := uint32(graph.Infinity)
	switch {
	case t < s:
		// Trivial pivot t: (t, d) in Lout(s) joined with implicit (t, 0).
		if d, ok := Lookup(outS, t); ok {
			best = d
		}
	case s < t:
		// Trivial pivot s: implicit (s, 0) joined with (s, d) in Lin(t).
		if d, ok := Lookup(inT, s); ok {
			best = d
		}
	}
	// Merge join over shared non-trivial pivots.
	i, j := 0, 0
	for i < len(outS) && j < len(inT) {
		a, b := outS[i].Pivot, inT[j].Pivot
		switch {
		case a == b:
			if d := outS[i].Dist + inT[j].Dist; d < best {
				best = d
			}
			i++
			j++
		case a < b:
			i++
		default:
			j++
		}
	}
	return best
}

// MeetingPivot returns the rank id of a pivot realizing the distance from
// s to t (original ids), or -1 when unreachable. Endpoints can be their
// own pivot. Used by path reconstruction and by tests.
func (x *Index) MeetingPivot(s, t int32) (int32, uint32) {
	rs, rt := x.rankOf(s), x.rankOf(t)
	if rs == rt {
		return rs, 0
	}
	return MergePivot(x.Out[rs], x.In[rt], rs, rt)
}

// MergePivot is MergeDistance's pivot-reporting variant: it returns a
// pivot realizing the minimum joined distance (or -1 when the lists share
// none) along with that distance. It relies on the same rank invariant.
func MergePivot(outS, inT []Entry, s, t int32) (int32, uint32) {
	best := uint32(graph.Infinity)
	pivot := int32(-1)
	switch {
	case t < s:
		if d, ok := Lookup(outS, t); ok {
			best, pivot = d, t
		}
	case s < t:
		if d, ok := Lookup(inT, s); ok {
			best, pivot = d, s
		}
	}
	i, j := 0, 0
	for i < len(outS) && j < len(inT) {
		a, b := outS[i].Pivot, inT[j].Pivot
		switch {
		case a == b:
			if d := outS[i].Dist + inT[j].Dist; d < best {
				best, pivot = d, a
			}
			i++
			j++
		case a < b:
			i++
		default:
			j++
		}
	}
	return pivot, best
}

// Lookup binary-searches a pivot-sorted entry list. The loop is written
// out (rather than via sort.Search) to keep the query hot path free of
// closure-call overhead.
func Lookup(list []Entry, pivot int32) (uint32, bool) {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if list[mid].Pivot < pivot {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(list) && list[lo].Pivot == pivot {
		return list[lo].Dist, true
	}
	return graph.Infinity, false
}

// Insert adds or improves (pivot, dist) in a pivot-sorted list, returning
// the updated list and whether it changed.
func Insert(list []Entry, pivot int32, dist uint32) ([]Entry, bool) {
	i := sort.Search(len(list), func(i int) bool { return list[i].Pivot >= pivot })
	if i < len(list) && list[i].Pivot == pivot {
		if list[i].Dist <= dist {
			return list, false
		}
		list[i].Dist = dist
		return list, true
	}
	list = append(list, Entry{})
	copy(list[i+1:], list[i:])
	list[i] = Entry{Pivot: pivot, Dist: dist}
	return list, true
}

// RemovePivots filters a pivot-sorted list in place, dropping every entry
// whose pivot is marked in drop (indexed by pivot id). It returns the
// shortened list, which aliases the input's backing array. Used by online
// label maintenance to strip the entries of suspect roots before they are
// recomputed against the mutated graph.
func RemovePivots(list []Entry, drop []bool) []Entry {
	kept := list[:0]
	for _, e := range list {
		if !drop[e.Pivot] {
			kept = append(kept, e)
		}
	}
	return kept
}

// Entries returns the total number of non-trivial label entries.
func (x *Index) Entries() int64 {
	var total int64
	for _, l := range x.Out {
		total += int64(len(l))
	}
	if x.Directed {
		for _, l := range x.In {
			total += int64(len(l))
		}
	}
	return total
}

// AvgLabel returns the average number of non-trivial entries per vertex
// (in + out for directed graphs), the paper's "Avg |label|" metric.
func (x *Index) AvgLabel() float64 {
	if x.N == 0 {
		return 0
	}
	return float64(x.Entries()) / float64(x.N)
}

// SizeBytes reports the serialized size of the label entries (8 bytes per
// entry: 4 pivot + 4 distance), the basis for the "Index size" column.
func (x *Index) SizeBytes() int64 { return x.Entries() * 8 }

// MaxLabel returns the largest per-vertex label size (in + out).
func (x *Index) MaxLabel() int {
	best := 0
	for v := int32(0); v < x.N; v++ {
		sz := len(x.Out[v])
		if x.Directed {
			sz += len(x.In[v])
		}
		if sz > best {
			best = sz
		}
	}
	return best
}

// Validate checks structural invariants: pivot lists sorted, pivots
// outranking owners, no trivial entries. Returns the first violation.
func (x *Index) Validate() error {
	check := func(side string, lists [][]Entry) error {
		for v := int32(0); v < x.N; v++ {
			prev := int32(-1)
			for _, e := range lists[v] {
				if e.Pivot <= prev {
					return fmt.Errorf("label: %s(%d) not strictly sorted at pivot %d", side, v, e.Pivot)
				}
				if e.Pivot >= v {
					return fmt.Errorf("label: %s(%d) has non-outranking pivot %d", side, v, e.Pivot)
				}
				prev = e.Pivot
			}
		}
		return nil
	}
	if err := check("Lout", x.Out); err != nil {
		return err
	}
	if x.Directed {
		return check("Lin", x.In)
	}
	return nil
}

// Equal reports whether two indexes contain exactly the same label sets
// (ignoring perm). Used by the in-memory vs external equivalence tests.
func (x *Index) Equal(y *Index) bool {
	if x.N != y.N || x.Directed != y.Directed {
		return false
	}
	eq := func(a, b [][]Entry) bool {
		for v := int32(0); v < x.N; v++ {
			if len(a[v]) != len(b[v]) {
				return false
			}
			for i := range a[v] {
				if a[v][i] != b[v][i] {
					return false
				}
			}
		}
		return true
	}
	if !eq(x.Out, y.Out) {
		return false
	}
	if x.Directed {
		return eq(x.In, y.In)
	}
	return true
}
