package label

import (
	"repro/internal/graph"
)

// The compact query kernel: a quantized, lane-aligned variant of the CSR
// label layout built for the merge-join hot path.
//
// Each label entry is packed into one uint32 key — pivot in the high 24
// bits, distance in the low 8 — so a label row costs half the memory
// bandwidth of the 8-byte Entry form and four rows fit in the cache
// footprint of two. Because the pivot occupies the high bits, keys sort
// exactly like pivots, so one packed row is still a sorted list and the
// trivial-pivot binary search works on it unchanged.
//
// Rows are padded with sentinel keys (all bits set) to a multiple of
// compactLane keys and every row therefore starts 64-byte aligned
// relative to the array base. The padding is what lets the intersection
// loop run branch-free: a row is never empty and always ends with at
// least one sentinel, so the merge needs no per-side bounds checks —
// the sentinel's pivot (0xFFFFFF) outranks every real pivot, parks the
// exhausted side, and the termination test is "either side parked".
//
// Packing is exact, not lossy: an index is only compacted when every
// distance fits in 8 bits and every pivot in 24 (CompactFrom reports
// encodability), so compact answers are byte-identical to the scalar
// merge over the same labels. Scale-free graphs — the paper's target —
// satisfy both bounds in practice: distances are tiny (small diameter)
// and vertex counts up to ~16.7M fit the pivot field.
const (
	// compactLane is the row padding granularity in keys: 16 keys = one
	// 64-byte cache line.
	compactLane = 16
	// compactSentinel pads rows; its pivot field (0xFFFFFF) outranks
	// every encodable pivot.
	compactSentinel = ^uint32(0)
	// compactMaxPivot is the largest encodable pivot id: the sentinel
	// pivot value is reserved.
	compactMaxPivot = 1<<24 - 2
	// compactMaxDist is the largest encodable entry distance.
	compactMaxDist = 1<<8 - 1
	// compactDistMask extracts the distance field of a packed key.
	compactDistMask = 1<<8 - 1
	// compactParked is the smallest key in the sentinel pivot range: the
	// largest real key is (compactMaxPivot<<8)|0xFF = 0xFFFFFEFF, so a
	// key >= compactParked can only be padding. The merge loop uses it to
	// detect an exhausted side in one unsigned compare.
	compactParked = uint32(0xFFFFFF) << 8
)

// CompactIndex is the packed-key form of a FlatIndex, serving the same
// queries through the branch-free merge kernel. It is built from (and
// always coexists with) a FlatIndex; it holds no perm of its own beyond
// the shared original-id mapping and no serialization — the FlatIndex
// remains the source of truth, the CompactIndex is a query accelerator.
//
// A CompactIndex is immutable after CompactFrom and therefore safe for
// unsynchronized concurrent queries, like the FlatIndex it shadows.
type CompactIndex struct {
	// Directed records whether Out and In are distinct label families.
	Directed bool
	// N is the number of vertices.
	N int32
	// OutOffsets has N+1 elements addressing OutKeys: vertex v's packed
	// out-row (real keys then sentinel padding) is
	// OutKeys[OutOffsets[v]:OutOffsets[v+1]]. Every row length is a
	// positive multiple of compactLane.
	OutOffsets []int64
	OutKeys    []uint32
	// InOffsets/InKeys hold the in-label side; for undirected graphs
	// they alias the out side.
	InOffsets []int64
	InKeys    []uint32
	// Perm maps original vertex ids to rank ids; nil means identity.
	// Shared with the source FlatIndex.
	Perm []int32
	// entries is the source index's non-trivial entry count (padding
	// excluded), kept for sizing diagnostics.
	entries int64
}

// CompactFrom packs f into the compact kernel layout. It reports false
// when f is not encodable — a distance beyond 8 bits (long weighted
// paths) or a vertex count beyond the 24-bit pivot space — in which case
// queries must stay on the scalar kernel.
func CompactFrom(f *FlatIndex) (*CompactIndex, bool) {
	if int64(f.N) > compactMaxPivot+1 {
		return nil, false
	}
	if !compactEncodable(f.OutEntries) || (f.Directed && !compactEncodable(f.InEntries)) {
		return nil, false
	}
	c := &CompactIndex{
		Directed: f.Directed,
		N:        f.N,
		//hopdb:ignore noaliasretain both indexes are immutable once published, so sharing the perm table is safe
		Perm:    f.Perm,
		entries: f.Entries(),
	}
	c.OutOffsets, c.OutKeys = packSide(f.OutOffsets, f.OutEntries)
	if f.Directed {
		c.InOffsets, c.InKeys = packSide(f.InOffsets, f.InEntries)
	} else {
		c.InOffsets, c.InKeys = c.OutOffsets, c.OutKeys
	}
	return c, true
}

// compactEncodable reports whether every entry fits the packed key
// fields. Pivot range is implied by the vertex-count check plus the
// outranking invariant, but is verified anyway so a hand-built index
// cannot silently alias the sentinel.
func compactEncodable(entries []Entry) bool {
	for _, e := range entries {
		if e.Dist > compactMaxDist || e.Pivot < 0 || e.Pivot > compactMaxPivot {
			return false
		}
	}
	return true
}

// packSide lays one label side out as sentinel-padded packed rows.
func packSide(offsets []int64, entries []Entry) ([]int64, []uint32) {
	n := len(offsets) - 1
	packed := make([]int64, n+1)
	var total int64
	for v := 0; v < n; v++ {
		packed[v] = total
		rowLen := offsets[v+1] - offsets[v]
		// Pad to the next lane boundary, always leaving >= 1 sentinel.
		total += (rowLen/compactLane + 1) * compactLane
	}
	packed[n] = total
	keys := make([]uint32, total)
	for i := range keys {
		keys[i] = compactSentinel
	}
	for v := 0; v < n; v++ {
		row := keys[packed[v]:]
		for i, e := range entries[offsets[v]:offsets[v+1]] {
			row[i] = uint32(e.Pivot)<<8 | e.Dist
		}
	}
	return packed, keys
}

// rankOf translates an original id to the internal rank id.
func (c *CompactIndex) rankOf(v int32) int32 {
	if c.Perm == nil {
		return v
	}
	return c.Perm[v]
}

// Distance answers a point-to-point distance query for original vertex
// ids, returning graph.Infinity when t is unreachable from s. Answers
// are byte-identical to FlatIndex.Distance over the same labels.
func (c *CompactIndex) Distance(s, t int32) uint32 {
	if s < 0 || t < 0 || s >= c.N || t >= c.N {
		return graph.Infinity
	}
	return c.DistanceRanked(c.rankOf(s), c.rankOf(t))
}

// DistanceRanked answers a query in internal rank-id space through the
// branch-free kernel.
func (c *CompactIndex) DistanceRanked(s, t int32) uint32 {
	if s == t {
		return 0
	}
	out := c.OutKeys[c.OutOffsets[s]:c.OutOffsets[s+1]]
	in := c.InKeys[c.InOffsets[t]:c.InOffsets[t+1]]
	best := uint32(graph.Infinity)
	// Trivial-pivot join, one binary search by the rank invariant (see
	// MergeDistance): the lower-ranked endpoint cannot appear as a pivot
	// in the higher-ranked endpoint's list.
	switch {
	case t < s:
		best = compactLookup(out, uint32(t))
	case s < t:
		best = compactLookup(in, uint32(s))
	}
	return compactMerge(out, in, best)
}

// compactLookup binary-searches a packed row for a trivial pivot,
// returning the stored distance or graph.Infinity. Packed keys order by
// pivot, so the search runs on the keys directly; the row's trailing
// sentinel (which outranks every encodable pivot) guarantees the probe
// index stays in bounds without a separate check.
func compactLookup(row []uint32, pivot uint32) uint32 {
	target := pivot << 8
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if k := row[lo]; k>>8 == pivot {
		return k & compactDistMask
	}
	return graph.Infinity
}

// Entries returns the number of non-trivial label entries in the source
// index (sentinel padding excluded), for sizing diagnostics.
func (c *CompactIndex) Entries() int64 { return c.entries }

// SizeBytes reports the in-memory size of the packed key arrays,
// padding included.
func (c *CompactIndex) SizeBytes() int64 {
	total := int64(len(c.OutKeys))
	if c.Directed {
		total += int64(len(c.InKeys))
	}
	return total * 4
}
