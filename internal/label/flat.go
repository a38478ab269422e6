package label

import (
	"fmt"
	"sync"

	"repro/internal/graph"
)

// FlatIndex is the CSR (compressed sparse row) form of Index: each label
// side is one contiguous entries array addressed by a per-vertex offsets
// array, so a query touches two cache-friendly runs of memory instead of
// chasing per-vertex slice headers. It is the query-serving representation;
// the slice-of-slices Index remains the mutable build-time form and is
// frozen into a FlatIndex once construction finishes.
//
// Concurrency contract: a FlatIndex is immutable after Freeze/load, and
// every query method (Distance, DistanceRanked, Lookup) only reads, so
// any number of goroutines may query one FlatIndex concurrently without
// synchronization — this is what lets the batch path, the server's
// worker pool, and the dynamic engine's epoch scheme share one index
// pointer freely. The flip side: nothing may mutate a published
// FlatIndex. Code that needs different labels (online updates) layers
// them over it instead: a dynamic.Epoch keeps a FlatIndex as its
// immutable base, holds the replaced rows in a copy-on-write overlay,
// and is published with an atomic pointer swap. The arrays may also
// alias a read-only memory-mapped file (see MmapFlat), where a write is
// not just a race but a SIGSEGV.
type FlatIndex struct {
	// Directed records whether Out and In are distinct label families.
	Directed bool
	// Weighted records whether the indexed graph had explicit weights.
	Weighted bool
	// N is the number of vertices.
	N int32
	// OutOffsets has N+1 elements; vertex v's out-label occupies
	// OutEntries[OutOffsets[v]:OutOffsets[v+1]], sorted by pivot id.
	OutOffsets []int64
	OutEntries []Entry
	// InOffsets/InEntries hold the in-label side; for undirected graphs
	// they alias the out side.
	InOffsets []int64
	InEntries []Entry
	// Perm maps original vertex ids to rank ids; nil means identity.
	Perm []int32
	// Inv maps rank ids back to original ids; nil means identity. Loaded
	// indexes may leave it nil even when Perm is set (queries only need
	// Perm); View computes it on demand.
	Inv []int32

	// mapped is the backing mmap region when the index was opened with
	// MmapFlat; Close unmaps it.
	mapped []byte
}

// Mapped reports whether the index aliases a read-only memory-mapped
// file (opened with MmapFlat) rather than heap arrays.
func (f *FlatIndex) Mapped() bool { return f.mapped != nil }

// Freeze converts a finished slice-of-slices index into its CSR form. The
// entries are copied into contiguous arrays; the source index is left
// untouched. Perm/Inv are shared, not copied.
func Freeze(x *Index) *FlatIndex {
	f := &FlatIndex{
		Directed: x.Directed,
		Weighted: x.Weighted,
		N:        x.N,
		Perm:     x.Perm,
		Inv:      x.Inv,
	}
	f.OutOffsets, f.OutEntries = flattenSide(x.Out)
	if x.Directed {
		f.InOffsets, f.InEntries = flattenSide(x.In)
	} else {
		f.InOffsets, f.InEntries = f.OutOffsets, f.OutEntries
	}
	return f
}

// FreezeParallel is Freeze with the entry copies fanned across up to
// workers goroutines: the offsets pass stays serial (it is a trivial
// prefix sum), then each worker copies a contiguous vertex range into
// the shared entries array. Disjoint destination ranges, identical
// result to Freeze. workers <= 1 degrades to Freeze.
func FreezeParallel(x *Index, workers int) *FlatIndex {
	if workers <= 1 {
		return Freeze(x)
	}
	f := &FlatIndex{
		Directed: x.Directed,
		Weighted: x.Weighted,
		N:        x.N,
		Perm:     x.Perm,
		Inv:      x.Inv,
	}
	f.OutOffsets, f.OutEntries = flattenSideParallel(x.Out, workers)
	if x.Directed {
		f.InOffsets, f.InEntries = flattenSideParallel(x.In, workers)
	} else {
		f.InOffsets, f.InEntries = f.OutOffsets, f.OutEntries
	}
	return f
}

func flattenSide(lists [][]Entry) ([]int64, []Entry) {
	offsets := make([]int64, len(lists)+1)
	var total int64
	for v, l := range lists {
		offsets[v] = total
		total += int64(len(l))
	}
	offsets[len(lists)] = total
	entries := make([]Entry, total)
	for v, l := range lists {
		copy(entries[offsets[v]:], l)
	}
	return offsets, entries
}

func flattenSideParallel(lists [][]Entry, workers int) ([]int64, []Entry) {
	offsets := make([]int64, len(lists)+1)
	var total int64
	for v, l := range lists {
		offsets[v] = total
		total += int64(len(l))
	}
	offsets[len(lists)] = total
	entries := make([]Entry, total)
	if workers > len(lists) {
		workers = len(lists)
	}
	var wg sync.WaitGroup
	chunk := (len(lists) + workers - 1) / workers
	for lo := 0; lo < len(lists); lo += chunk {
		hi := lo + chunk
		if hi > len(lists) {
			hi = len(lists)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for v := lo; v < hi; v++ {
				copy(entries[offsets[v]:offsets[v+1]], lists[v])
			}
		}(lo, hi)
	}
	wg.Wait()
	return offsets, entries
}

// View returns a slice-of-slices Index whose per-vertex lists alias the
// flat arrays, so analysis tooling written against Index works on a frozen
// index without copying the labels. The view is read-only: mutating it
// (e.g. via Insert) corrupts the FlatIndex and, for a mapped index,
// faults.
func (f *FlatIndex) View() *Index {
	x := &Index{
		Directed: f.Directed,
		Weighted: f.Weighted,
		N:        f.N,
	}
	if f.Perm != nil {
		if f.Inv != nil {
			x.Perm, x.Inv = f.Perm, f.Inv
		} else {
			// Loaded indexes defer Inv; SetPerm rebuilds it.
			x.SetPerm(f.Perm)
		}
	}
	x.Out = viewSide(f.OutOffsets, f.OutEntries)
	if f.Directed {
		x.In = viewSide(f.InOffsets, f.InEntries)
	} else {
		x.In = x.Out
	}
	return x
}

func viewSide(offsets []int64, entries []Entry) [][]Entry {
	lists := make([][]Entry, len(offsets)-1)
	for v := range lists {
		lists[v] = entries[offsets[v]:offsets[v+1]:offsets[v+1]]
	}
	return lists
}

// Out returns vertex v's out-label as a pivot-sorted slice into the flat
// array.
func (f *FlatIndex) Out(v int32) []Entry {
	return f.OutEntries[f.OutOffsets[v]:f.OutOffsets[v+1]]
}

// In returns vertex v's in-label as a pivot-sorted slice into the flat
// array.
func (f *FlatIndex) In(v int32) []Entry {
	return f.InEntries[f.InOffsets[v]:f.InOffsets[v+1]]
}

// rankOf translates an original id to the internal rank id.
func (f *FlatIndex) rankOf(v int32) int32 {
	if f.Perm == nil {
		return v
	}
	return f.Perm[v]
}

// Distance answers a point-to-point distance query for original vertex
// ids, returning graph.Infinity when t is unreachable from s.
func (f *FlatIndex) Distance(s, t int32) uint32 {
	if s < 0 || t < 0 || s >= f.N || t >= f.N {
		return graph.Infinity
	}
	return f.DistanceRanked(f.rankOf(s), f.rankOf(t))
}

// DistanceRanked answers a query in internal rank-id space: the shared
// merge-join over two contiguous runs of the flat entry arrays.
func (f *FlatIndex) DistanceRanked(s, t int32) uint32 {
	if s == t {
		return 0
	}
	return MergeDistance(f.Out(s), f.In(t), s, t)
}

// MeetingPivot returns the rank id of a pivot realizing the distance from
// s to t (original ids), or -1 when unreachable; see Index.MeetingPivot.
func (f *FlatIndex) MeetingPivot(s, t int32) (int32, uint32) {
	rs, rt := f.rankOf(s), f.rankOf(t)
	if rs == rt {
		return rs, 0
	}
	return MergePivot(f.Out(rs), f.In(rt), rs, rt)
}

// Entries returns the total number of non-trivial label entries. O(1) on
// the flat form.
func (f *FlatIndex) Entries() int64 {
	total := int64(len(f.OutEntries))
	if f.Directed {
		total += int64(len(f.InEntries))
	}
	return total
}

// AvgLabel returns the average number of non-trivial entries per vertex.
func (f *FlatIndex) AvgLabel() float64 {
	if f.N == 0 {
		return 0
	}
	return float64(f.Entries()) / float64(f.N)
}

// SizeBytes reports the serialized size of the label entries (8 bytes per
// entry).
func (f *FlatIndex) SizeBytes() int64 { return f.Entries() * 8 }

// MaxLabel returns the largest per-vertex label size (in + out).
func (f *FlatIndex) MaxLabel() int {
	best := int64(0)
	for v := int32(0); v < f.N; v++ {
		sz := f.OutOffsets[v+1] - f.OutOffsets[v]
		if f.Directed {
			sz += f.InOffsets[v+1] - f.InOffsets[v]
		}
		if sz > best {
			best = sz
		}
	}
	return int(best)
}

// CheckRow checks one label row against the label invariants: pivots
// strictly ascending, each outranking v (the row's owner, as a rank),
// and every distance finite. side names the row in the error ("Lout" or
// "Lin"). Validate runs it on every row of an index; the disk backend
// runs it on each row it reads.
func CheckRow(side string, v int32, row []Entry) error {
	prev := int32(-1)
	for _, e := range row {
		if e.Pivot <= prev || e.Pivot >= v || e.Dist >= graph.Infinity {
			return rowError(side, v, prev, e)
		}
		prev = e.Pivot
	}
	return nil
}

// rowError names the invariant e breaks in row side(v), whose previous
// pivot is prev. Building the error apart from CheckRow keeps its scan
// loop tight: with the formatting inline, a heap open's Validate runs
// about 12% slower.
func rowError(side string, v, prev int32, e Entry) error {
	switch {
	case e.Pivot <= prev:
		return fmt.Errorf("label: %s(%d) not strictly sorted at pivot %d", side, v, e.Pivot)
	case e.Pivot >= v:
		return fmt.Errorf("label: %s(%d) has non-outranking pivot %d", side, v, e.Pivot)
	default:
		return fmt.Errorf("label: %s(%d) has an infinite distance to pivot %d", side, v, e.Pivot)
	}
}

// Validate checks the CSR invariants (offset monotonicity and bounds) and
// every row's label invariants (CheckRow).
func (f *FlatIndex) Validate() error {
	check := func(side string, offsets []int64, entries []Entry) error {
		if int32(len(offsets)) != f.N+1 {
			return fmt.Errorf("label: %s offsets length %d, want %d", side, len(offsets), f.N+1)
		}
		if len(offsets) > 0 {
			if offsets[0] != 0 {
				return fmt.Errorf("label: %s offsets do not start at 0", side)
			}
			if offsets[f.N] != int64(len(entries)) {
				return fmt.Errorf("label: %s offsets end at %d, want %d", side, offsets[f.N], len(entries))
			}
		}
		for v := int32(0); v < f.N; v++ {
			if offsets[v] > offsets[v+1] {
				return fmt.Errorf("label: %s offsets decrease at vertex %d", side, v)
			}
			if err := CheckRow(side, v, entries[offsets[v]:offsets[v+1]]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := check("Lout", f.OutOffsets, f.OutEntries); err != nil {
		return err
	}
	if f.Directed {
		return check("Lin", f.InOffsets, f.InEntries)
	}
	return nil
}

// Equal reports whether two flat indexes hold exactly the same label sets
// (ignoring perm).
func (f *FlatIndex) Equal(g *FlatIndex) bool {
	if f.N != g.N || f.Directed != g.Directed {
		return false
	}
	eq := func(ao []int64, ae []Entry, bo []int64, be []Entry) bool {
		if len(ae) != len(be) {
			return false
		}
		for i := range ao {
			if ao[i] != bo[i] {
				return false
			}
		}
		for i := range ae {
			if ae[i] != be[i] {
				return false
			}
		}
		return true
	}
	if !eq(f.OutOffsets, f.OutEntries, g.OutOffsets, g.OutEntries) {
		return false
	}
	if f.Directed {
		return eq(f.InOffsets, f.InEntries, g.InOffsets, g.InEntries)
	}
	return true
}
