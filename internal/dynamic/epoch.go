package dynamic

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/label"
)

const (
	// pageShift sizes an overlay page at 64 label rows, so one machine
	// word masks a page's replaced rows.
	pageShift = 6
	pageRows  = 1 << pageShift
	pageMask  = pageRows - 1

	// compactDivisor fixes the compaction rule: once the overlay holds
	// more than 1/compactDivisor of the base (its entries plus one offset
	// word per vertex, which is what cutting a fresh base costs) the
	// writer folds it into a new base. The O(index) fold is thereby paid
	// once per Omega(index) entries of overlay growth.
	compactDivisor = 4

	// rowSlack is the spare capacity of a freshly cloned row: the insert
	// that forced the clone, and a few after it within the same mutation,
	// grow the row without reallocating.
	rowSlack = 4
)

// page is the overlay's unit of sharing: the replaced rows among 64
// consecutive ranks of one label side. A published page is never written
// again; a mutation that touches one of its rows clones the page first.
type page struct {
	// gen is the writer generation that created this copy, and owned
	// masks the rows that generation already cloned: both matter only
	// while the epoch holding the page is still under construction.
	gen   uint64
	owned uint64
	// dirty masks the rows that replace the base's; rows[i] is
	// meaningful only where bit i is set (and may be empty there).
	dirty uint64
	rows  [pageRows][]label.Entry
}

// Epoch is one published version of the labels: an immutable base CSR
// plus a copy-on-write overlay of the rows replaced since the base was
// cut. Consecutive epochs share the base and every page (and row) the
// mutation between them did not touch, so publishing costs the rows a
// mutation changed, not the index.
//
// Concurrency contract: an Epoch obtained from Index.Current is
// immutable — same contract as label.FlatIndex — so any number of
// goroutines may query it without synchronization, and the rows Out and
// In return must not be written or retained past the epoch (hopdb-vet's
// noaliasretain checks both). The unexported mutators run only on an
// unpublished fork, under the writer lock.
type Epoch struct {
	base *label.FlatIndex
	// out and in are the page tables, one pointer per 64 ranks, nil for
	// a page with no replaced row; in aliases out for undirected graphs.
	out, in []*page

	// entries is the running label-entry count of base + overlay;
	// overlayRows and overlayEntries size the overlay alone.
	entries                     int64
	overlayRows, overlayEntries int64

	// gen is the writer generation building this epoch: pages carrying
	// it are private to the fork until it is published.
	gen uint64
}

// newEpoch wraps base with an empty overlay.
func newEpoch(base *label.FlatIndex) *Epoch {
	pages := (int(base.N) + pageRows - 1) >> pageShift
	e := &Epoch{base: base, entries: base.Entries(), out: make([]*page, pages)}
	e.in = e.out
	if base.Directed {
		e.in = make([]*page, pages)
	}
	return e
}

// N returns the number of indexed vertices.
func (e *Epoch) N() int32 { return e.base.N }

// Base returns the immutable CSR under the overlay: the labels the index
// was opened with, until a compaction or rebuild cuts a fresh one.
func (e *Epoch) Base() *label.FlatIndex { return e.base }

// Directed reports whether out- and in-labels are distinct families.
func (e *Epoch) Directed() bool { return e.base.Directed }

// Entries returns the total number of non-trivial label entries. O(1):
// the writer keeps a running count.
func (e *Epoch) Entries() int64 { return e.entries }

// SizeBytes reports the serialized size of the label entries (8 bytes
// per entry), like FlatIndex.SizeBytes, without materialising anything.
func (e *Epoch) SizeBytes() int64 { return e.entries * 8 }

// Out returns rank v's out-label, pivot-sorted: the overlay row when the
// epoch replaced it, the base row otherwise. Read-only.
func (e *Epoch) Out(v int32) []label.Entry {
	if p := e.out[v>>pageShift]; p != nil && p.dirty&(1<<(uint(v)&pageMask)) != 0 {
		return p.rows[v&pageMask]
	}
	return e.base.Out(v)
}

// In returns rank v's in-label; see Out.
func (e *Epoch) In(v int32) []label.Entry {
	if p := e.in[v>>pageShift]; p != nil && p.dirty&(1<<(uint(v)&pageMask)) != 0 {
		return p.rows[v&pageMask]
	}
	return e.base.In(v)
}

// Distance answers a point-to-point distance query for original vertex
// ids, returning graph.Infinity when t is unreachable from s.
func (e *Epoch) Distance(s, t int32) uint32 {
	b := e.base
	if s < 0 || t < 0 || s >= b.N || t >= b.N {
		return graph.Infinity
	}
	if b.Perm != nil {
		s, t = b.Perm[s], b.Perm[t]
	}
	return e.DistanceRanked(s, t)
}

// DistanceRanked answers a query in rank-id space with the shared
// merge-join over the two resolved rows.
func (e *Epoch) DistanceRanked(s, t int32) uint32 {
	if s == t {
		return 0
	}
	return label.MergeDistance(e.Out(s), e.In(t), s, t)
}

// Flat materialises the epoch as a plain CSR index: the base itself when
// the overlay is empty, otherwise a fresh O(index) copy. It is what Save
// writes, what compaction installs as the next base, and what the
// byte-identity tests compare.
func (e *Epoch) Flat() *label.FlatIndex {
	if e.overlayRows == 0 {
		return e.base
	}
	return label.Freeze(e.view())
}

// view resolves every row into a nested index aliasing base and overlay
// rows. Read-only, like FlatIndex.View.
func (e *Epoch) view() *label.Index {
	b := e.base
	x := &label.Index{Directed: b.Directed, Weighted: b.Weighted, N: b.N, Perm: b.Perm, Inv: b.Inv}
	x.Out = make([][]label.Entry, b.N)
	for v := range x.Out {
		x.Out[v] = e.Out(int32(v))
	}
	x.In = x.Out
	if b.Directed {
		x.In = make([][]label.Entry, b.N)
		for v := range x.In {
			x.In[v] = e.In(int32(v))
		}
	}
	return x
}

// fork returns the mutable successor of e for writer generation gen: it
// shares the base, every page and every row, and owns only its page
// tables. The mutators below clone what they write.
func (e *Epoch) fork(gen uint64) *Epoch {
	n := *e
	n.gen = gen
	n.out = slices.Clone(e.out)
	n.in = n.out
	if e.base.Directed {
		n.in = slices.Clone(e.in)
	}
	return &n
}

// own is the one step every label write goes through: it makes rank v's
// row on the chosen side private to this fork — cloning the page, then
// the row (from the overlay, else from the base), unless this generation
// already did — and returns where the row lives. label.Insert and
// label.RemovePivots write in place, so skipping own would corrupt a
// published epoch under its readers.
func (e *Epoch) own(in bool, v int32) (*page, int) {
	tab := e.out
	if in {
		tab = e.in
	}
	p := tab[v>>pageShift]
	if p == nil || p.gen != e.gen {
		np := &page{gen: e.gen}
		if p != nil {
			np.dirty, np.rows = p.dirty, p.rows
		}
		p = np
		tab[v>>pageShift] = p
	}
	i := int(v & pageMask)
	if bit := uint64(1) << i; p.owned&bit == 0 {
		src := p.rows[i]
		if p.dirty&bit == 0 {
			src = e.base.Out(v)
			if in {
				src = e.base.In(v)
			}
			p.dirty |= bit
			e.overlayRows++
			e.overlayEntries += int64(len(src))
		}
		p.rows[i] = append(make([]label.Entry, 0, len(src)+rowSlack), src...)
		p.owned |= bit
	}
	return p, i
}

// insert adds or improves (pivot, dist) in rank v's row on the chosen
// side. Callers only insert improvements, so the row always changes.
func (e *Epoch) insert(in bool, v, pivot int32, dist uint32) {
	p, i := e.own(in, v)
	row, _ := label.Insert(p.rows[i], pivot, dist)
	e.resize(int64(len(row) - len(p.rows[i])))
	p.rows[i] = row
}

// strip drops every entry of rank v's row on the chosen side whose pivot
// is marked in drop; a row holding none is left shared.
func (e *Epoch) strip(in bool, v int32, drop []bool) {
	row := e.Out(v)
	if in {
		row = e.In(v)
	}
	if !holdsDropped(row, drop) {
		return
	}
	p, i := e.own(in, v)
	kept := label.RemovePivots(p.rows[i], drop)
	e.resize(int64(len(kept) - len(p.rows[i])))
	p.rows[i] = kept
}

// holdsDropped reports whether any entry of row has its pivot marked.
func holdsDropped(row []label.Entry, drop []bool) bool {
	for _, x := range row {
		if drop[x.Pivot] {
			return true
		}
	}
	return false
}

// resize accounts for an overlay row growing (or shrinking) by delta.
func (e *Epoch) resize(delta int64) {
	e.entries += delta
	e.overlayEntries += delta
}

// wantsCompaction applies the fixed compaction rule.
func (e *Epoch) wantsCompaction() bool {
	return e.overlayEntries*compactDivisor > e.base.Entries()+int64(e.base.N)
}
