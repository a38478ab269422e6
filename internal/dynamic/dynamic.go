// Package dynamic implements online maintenance of 2-hop label indexes:
// edge insertions patch labels in place with resumed pruned searches (the
// incremental scheme of Akiba et al.'s pruned-landmark line, adapted to
// this repository's rank-space labels), and edge deletions repair the
// affected label roots with a bounded partial rebuild, falling back to
// full reconstruction past a configurable staleness threshold.
//
// The index keeps one persistent representation. A published Epoch is an
// immutable base CSR (label.FlatIndex) plus a copy-on-write overlay of
// the rows replaced since that base was cut: per label side a page table
// with one pointer per 64 ranks, nil for a page without a replaced row.
// Readers load the epoch pointer once per query (or once per batch),
// test one page pointer per side, and otherwise run the ordinary
// merge-join over the base rows; they never block, and a reader that
// started on an old epoch simply answers from the graph as it was before
// the mutation. The writer holds no second copy of the labels: under the
// writer lock a mutation forks the current epoch (copying only the page
// tables), reads rows through the same resolver, and clones a page and a
// row the first time it writes one, so an update costs the rows it
// changes plus n/64 words, independent of the index size, and a
// published row is never written again. Once the overlay exceeds a fixed
// quarter of the base, the writer folds it into a fresh base inline
// (O(index), amortised over the overlay growth that triggered it); a
// staleness rebuild installs its result as a new base with an empty
// overlay. Epoch.Flat materialises a plain CSR on demand, which is what
// Save writes.
//
// Correctness model: after an insertion, labels may retain entries whose
// distances are no longer minimal label-wise, but every entry is an exact
// distance of some path and every vertex pair is covered at its true
// distance, so queries stay exact (insertions only shrink distances and
// the resumed searches install the improved covers). After a deletion,
// entries rooted at "suspect" vertices — those with some old shortest
// path through the deleted edge, detected exactly with two (four when
// directed) single-source searches — are stripped and recomputed against
// the mutated graph in rank order, restoring exactness. Repeated partial
// repairs can leave the labeling larger than a from-scratch build; the
// staleness threshold bounds that drift by forcing a full rebuild.
package dynamic

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/wire"
)

// Update errors reported to callers (the server maps them to HTTP 400).
var (
	// ErrNoEdge is returned by DeleteEdge when the edge does not exist.
	ErrNoEdge = errors.New("dynamic: edge does not exist")
	// ErrVertexRange is returned when an endpoint is outside [0, N); the
	// vertex set of a dynamic index is fixed at construction.
	ErrVertexRange = errors.New("dynamic: vertex id out of range")
	// ErrSelfLoop is returned for u == v; self-loops never change
	// distances and are rejected rather than silently dropped.
	ErrSelfLoop = errors.New("dynamic: self-loop")
	// ErrWeightRange is returned for insert weights outside
	// (0, graph.MaxWeight].
	ErrWeightRange = errors.New("dynamic: edge weight out of range")
)

// DefaultMaxStaleFraction is the staleness threshold applied when
// Options.MaxStaleFraction is zero: a deletion whose suspect roots plus
// the dirty vertices accumulated since the last full rebuild exceed a
// quarter of the vertex set triggers reconstruction instead of repair.
const DefaultMaxStaleFraction = 0.25

// Options tunes online maintenance.
type Options struct {
	// MaxStaleFraction is the dirty-vertex budget as a fraction of |V|.
	// Each DeleteEdge compares (new suspects + accumulated dirty
	// vertices) / |V| against it: within budget the deletion is absorbed
	// by a bounded partial repair, beyond it the labels are rebuilt from
	// scratch (which resets the accumulator and re-compacts the
	// labeling). Zero selects DefaultMaxStaleFraction; since the
	// accumulator only resets on rebuild, every finite threshold
	// eventually forces one under a sustained delete load.
	MaxStaleFraction float64
	// RebuildParallelism shards full rebuilds across goroutines;
	// <= 1 rebuilds serially. It overrides Build.Parallelism.
	RebuildParallelism int
	// Build carries the options the index was originally constructed
	// with, so a staleness-triggered full rebuild reproduces the same
	// labeling regime (method, switch point, pruning mode, candidate
	// budget) instead of silently reverting to defaults. Rebuild-unsafe
	// fields (CheckpointDir, Resume, CollectStats) are cleared before
	// use; Parallelism is replaced by RebuildParallelism.
	Build core.Options
	// JournalLimit bounds the in-memory replication journal, in ops
	// (see ReplicationLog). Zero selects DefaultJournalLimit; negative
	// keeps the journal unbounded. A replica that falls further behind
	// than the retained window gets ErrJournalGap and must reseed from a
	// fresh snapshot.
	JournalLimit int
	// InitialSeq positions a freshly opened index at a non-zero journal
	// sequence: the index was seeded from a snapshot of a primary that
	// had already committed InitialSeq mutations, so replication resumes
	// pulling from there instead of demanding ops the primary may have
	// trimmed (and which must not be replayed onto post-op state). The
	// epoch starts at the same value (the two advance in lockstep).
	InitialSeq int64
}

// Index is a 2-hop label index serving lock-free exact distance queries
// from its current Epoch. One built by New also accepts online edge
// updates; one built by Static is read-only. The zero value is not
// usable.
//
// Concurrency: InsertEdge and DeleteEdge serialize on an internal writer
// lock. Current (and the query helpers built on it) may be called from
// any number of goroutines concurrently with writers: published label
// epochs are immutable, and a mutation becomes visible atomically as a
// whole — readers observe either the pre- or the post-update graph,
// never a mixture.
type Index struct {
	// mu is the writer lock. Path and Stats take it from the serving
	// path, so its critical sections stay computational.
	//hopdb:lockscope
	mu  sync.Mutex
	opt Options
	// cur is the published epoch: readers Load it lock-free, the writer
	// Stores the next immutable Epoch after each effective mutation.
	//hopdb:atomic
	cur atomic.Pointer[Epoch]
	// next is the epoch under construction — a fork of cur the running
	// mutation writes through — and gen numbers the forks; nil between
	// mutations. Guarded by mu.
	next *Epoch
	gen  uint64

	// g is the mutable adjacency; nil on a read-only index.
	g         *mutGraph
	perm, inv []int32
	n         int32

	// Writer-lock-guarded search scratch, reused across maintenance
	// searches so steady-state updates allocate little. distA/distB hold
	// DeleteEdge's endpoint single-source distances; drop doubles as its
	// suspect marker (cleared after each use).
	visit        []uint32
	touched      []int32
	drop         []bool
	distA, distB []uint32
	pq           spQueue
	batch        []rootSeed
	seeds        []seed

	// Counters behind the lock; snapshot with Stats.
	inserts, deletes, noops      int64
	partialRepairs, fullRebuilds int64
	dirtyVertices                int64
	compactions                  int64
	anomalies                    int64

	// epoch and seq are written under the lock but read lock-free by
	// servers tagging every query response, so they are atomics. epoch
	// counts published label versions; seq numbers the journaled
	// mutations (the two advance in lockstep: one publish per effective
	// mutation).
	epoch, seq atomic.Int64

	// journal[journalHead:] holds the effective mutations with
	// journalStart < op.Seq <= seq, oldest first, capped at
	// opt.JournalLimit; the prefix before journalHead is trimmed ops
	// awaiting reclamation (see journalAppend). Guarded by mu.
	journal      []wire.SeqEdgeOp
	journalHead  int
	journalStart int64
}

// New wraps a frozen label index and its graph in a dynamic index. flat
// and g must describe the same graph (vertex count, directedness,
// weightedness). No label entry is copied: flat's label arrays become the
// base of the initial epoch and must stay immutable, as every FlatIndex
// already is.
func New(flat *label.FlatIndex, g *graph.Graph, opt Options) (*Index, error) {
	if flat.N != g.N() {
		return nil, fmt.Errorf("dynamic: index has %d vertices, graph has %d", flat.N, g.N())
	}
	if flat.Directed != g.Directed() || flat.Weighted != g.Weighted() {
		return nil, fmt.Errorf("dynamic: index kind (directed=%v weighted=%v) does not match graph (directed=%v weighted=%v)",
			flat.Directed, flat.Weighted, g.Directed(), g.Weighted())
	}
	if opt.MaxStaleFraction == 0 {
		opt.MaxStaleFraction = DefaultMaxStaleFraction
	}
	if opt.JournalLimit == 0 {
		opt.JournalLimit = DefaultJournalLimit
	}
	d := &Index{
		opt:     opt,
		n:       flat.N,
		g:       newMutGraph(g, flat.Perm),
		visit:   make([]uint32, flat.N),
		touched: make([]int32, 0, 64),
		drop:    make([]bool, flat.N),
		distA:   make([]uint32, flat.N),
		distB:   make([]uint32, flat.N),
	}
	for i := range d.visit {
		d.visit[i] = graph.Infinity
	}
	base := flat
	if flat.Perm != nil {
		// Own copies of the id tables: loaded indexes defer Inv (Path
		// needs it), and every base shares these. A loaded flat's Perm is
		// a view into its file buffer; a compacted base inheriting it
		// would pin that whole buffer after the labels moved on.
		d.perm = slices.Clone(flat.Perm)
		d.inv = make([]int32, len(d.perm))
		for v, r := range d.perm {
			d.inv[r] = int32(v)
		}
		b := *flat // the label arrays stay flat's, as newEpoch(flat) keeps them
		b.Perm, b.Inv = d.perm, d.inv
		base = &b
	}
	if opt.InitialSeq < 0 {
		return nil, fmt.Errorf("dynamic: negative InitialSeq %d", opt.InitialSeq)
	}
	if opt.InitialSeq > 0 {
		d.seq.Store(opt.InitialSeq)
		d.epoch.Store(opt.InitialSeq)
		d.journalStart = opt.InitialSeq
	}
	d.cur.Store(newEpoch(base))
	return d, nil
}

// Static wraps a frozen label index as a read-only Index: one epoch with
// an empty overlay over flat's arrays, and none of New's maintenance
// state — no adjacency, no search scratch, no journal: beside the two
// structs it allocates only the epoch's page tables, one pointer per 64
// ranks and side. The mutators need an index from New.
func Static(flat *label.FlatIndex) *Index {
	d := &Index{n: flat.N}
	d.cur.Store(newEpoch(flat))
	return d
}

// Updatable reports whether d accepts mutations (it came from New).
func (d *Index) Updatable() bool { return d.g != nil }

// Current returns the label epoch serving queries right now. The returned
// epoch is immutable; hold it to answer a batch from one consistent
// graph state.
func (d *Index) Current() *Epoch { return d.cur.Load() }

// N returns the number of indexed vertices.
func (d *Index) N() int32 { return d.n }

// rank translates an original vertex id into rank space.
func (d *Index) rank(v int32) int32 {
	if d.perm == nil {
		return v
	}
	return d.perm[v]
}

// checkEndpoints validates an edge request in original-id space.
func (d *Index) checkEndpoints(u, v int32) error {
	if u < 0 || v < 0 || u >= d.n || v >= d.n {
		return fmt.Errorf("%w: (%d,%d) with %d vertices", ErrVertexRange, u, v, d.n)
	}
	if u == v {
		return fmt.Errorf("%w: (%d,%d)", ErrSelfLoop, u, v)
	}
	return nil
}

// InsertEdge adds the edge u->v (or the undirected edge {u,v}) with
// weight w and patches the labels incrementally with resumed pruned
// searches from the affected roots. For unweighted graphs w is ignored;
// for weighted graphs w <= 0 means 1. Inserting an existing edge is a
// no-op unless the new weight improves on the stored one, in which case
// the edge is re-weighted and distances updated. The new epoch is
// published before InsertEdge returns.
func (d *Index) InsertEdge(u, v, w int32) error {
	if err := d.checkEndpoints(u, v); err != nil {
		return err
	}
	w, err := d.normalizeWeight(w)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.insertLocked(u, v, w) {
		d.noops++
		return nil
	}
	d.inserts++
	d.commit(wire.OpInsert, u, v, w)
	return nil
}

// normalizeWeight applies the insert-weight conventions: 1 for unweighted
// graphs, <= 0 means 1, and out-of-range weights are rejected. Journal
// entries record the normalized weight, so replicas replay exactly what
// the primary applied.
func (d *Index) normalizeWeight(w int32) (int32, error) {
	if !d.g.weighted {
		return 1, nil
	}
	if w <= 0 {
		w = 1
	}
	if w > graph.MaxWeight {
		return 0, fmt.Errorf("%w: %d outside (0, %d]", ErrWeightRange, w, graph.MaxWeight)
	}
	return w, nil
}

// insertLocked applies an insert with validated endpoints and normalized
// weight, reporting whether the graph changed. Caller holds mu; the
// caller publishes.
func (d *Index) insertLocked(u, v, w int32) bool {
	a, b := d.rank(u), d.rank(v)
	if old, ok := d.g.weight(a, b); ok && old <= w {
		return false
	}
	d.g.addArc(a, b, w)
	if !d.g.directed {
		d.g.addArc(b, a, w)
	}
	d.begin()
	d.maintainInsert(a, b, uint32(w))
	return true
}

// begin forks the current epoch into next, the epoch the running
// mutation reads and writes. Caller holds mu.
func (d *Index) begin() {
	d.gen++
	d.next = d.cur.Load().fork(d.gen)
}

// maintainInsert patches the labels after arc a->b (rank space, weight
// w) appeared or improved. Every root whose distances can have shrunk
// is, by the 2-hop cover property, either an endpoint or a pivot
// labeling one: resumed searches from exactly those roots re-cover all
// improved pairs.
func (d *Index) maintainInsert(a, b int32, w uint32) {
	x := d.next
	batch := d.batch[:0]
	// Roots that reach a (entries in Lin(a)) extend forward through the
	// new arc. Roots reached from b (entries in Lout(b)) extend backward
	// on directed graphs; with a single label family they are roots
	// reaching b, and extend forward across the edge to a.
	fromB := !d.g.directed
	for _, e := range x.In(a) {
		batch = append(batch, rootSeed{r: e.Pivot, forward: true, s: seed{v: b, d: e.Dist + w}})
	}
	batch = append(batch, rootSeed{r: a, forward: true, s: seed{v: b, d: w}})
	for _, e := range x.Out(b) {
		batch = append(batch, rootSeed{r: e.Pivot, forward: fromB, s: seed{v: a, d: e.Dist + w}})
	}
	batch = append(batch, rootSeed{r: b, forward: fromB, s: seed{v: a, d: w}})
	d.runSeeds(batch)
	d.batch = batch[:0]
}

// DeleteEdge removes the edge u->v (or the undirected edge {u,v}). The
// roots whose shortest-path trees could have used the edge are detected
// exactly from pre-deletion single-source distances; within the staleness
// budget their labels are repaired in place (bounded partial rebuild),
// beyond it the whole labeling is reconstructed. Returns ErrNoEdge if the
// edge is not present. The new epoch is published before DeleteEdge
// returns.
func (d *Index) DeleteEdge(u, v int32) error {
	if err := d.checkEndpoints(u, v); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.deleteLocked(u, v); err != nil {
		return err
	}
	d.deletes++
	d.commit(wire.OpDelete, u, v, 0)
	return nil
}

// deleteLocked applies a delete with validated endpoints: suspect
// detection, then partial repair or full rebuild. Caller holds mu; the
// caller publishes on nil return (on error the graph and labels are
// unchanged).
func (d *Index) deleteLocked(u, v int32) error {
	a, b := d.rank(u), d.rank(v)
	w32, ok := d.g.weight(a, b)
	if !ok {
		return fmt.Errorf("%w: (%d,%d)", ErrNoEdge, u, v)
	}

	// Suspect roots, from distances in the graph as it still is: root r
	// is suspect iff the edge is tight from it — d(r,a) + w == d(r,b)
	// or the reverse orientation — i.e. SOME shortest path from r runs
	// through the edge. This set is deliberately conservative. It is a
	// superset of every root with a stale entry (a changed d(r,x) means
	// every old shortest r->x path used the edge, and shortest-path
	// prefixes make the edge tight from r). And — unlike the tempting
	// refinement to "roots whose distance to an endpoint changed" — it
	// preserves the canonical-cover property the pruned searches rely
	// on: a pair served by a suspect pivot may need its cover re-homed
	// onto a root whose distances did NOT change, and only re-searching
	// every tight root re-creates those entries (the refinement loses
	// covers and answers over-estimates; the equivalence suite catches
	// it on the star shape).
	w := uint32(w32)
	n := int(d.n)
	da, db := d.distA, d.distB
	var suspects []int32
	tight := func(x, y uint32) bool { return x != graph.Infinity && x+w == y }
	if !d.g.directed {
		d.g.sssp(a, true, da, &d.pq)
		d.g.sssp(b, true, db, &d.pq)
		for r := 0; r < n; r++ {
			if tight(da[r], db[r]) || tight(db[r], da[r]) {
				suspects = append(suspects, int32(r))
			}
		}
	} else {
		// Forward trees of r use arc a->b iff d(r,a) + w == d(r,b);
		// distances to a/b come from backward searches. Backward trees
		// (paths y -> r) use it iff d(a,r) == w + d(b,r), from forward
		// searches. drop marks the first pass's picks so the second
		// does not duplicate them; repairSuspects re-derives its own
		// marks from the suspect list, so clearing here suffices.
		d.g.sssp(a, false, da, &d.pq)
		d.g.sssp(b, false, db, &d.pq)
		for r := 0; r < n; r++ {
			if tight(da[r], db[r]) {
				d.drop[r] = true
				suspects = append(suspects, int32(r))
			}
		}
		d.g.sssp(a, true, da, &d.pq)
		d.g.sssp(b, true, db, &d.pq)
		for r := 0; r < n; r++ {
			if !d.drop[r] && tight(db[r], da[r]) {
				suspects = append(suspects, int32(r))
			}
		}
		for _, r := range suspects {
			d.drop[r] = false
		}
	}

	d.g.removeArc(a, b)
	if !d.g.directed {
		d.g.removeArc(b, a)
	}

	if float64(int64(len(suspects))+d.dirtyVertices) > d.opt.MaxStaleFraction*float64(d.n) {
		if err := d.fullRebuild(); err != nil {
			// Roll the removal back: the labels were not touched, so
			// restoring the arc keeps graph and labels consistent and
			// the delete is simply not applied.
			d.g.addArc(a, b, w32)
			if !d.g.directed {
				d.g.addArc(b, a, w32)
			}
			return err
		}
	} else {
		d.begin()
		d.repairSuspects(suspects)
		d.dirtyVertices += int64(len(suspects))
		d.partialRepairs++
	}
	return nil
}

// fullRebuild reconstructs the labeling from scratch with the regular
// hop-doubling builder, run on a rank-space snapshot of the mutable graph
// so the existing vertex ranking (and therefore the rank-space adjacency
// and scratch) stays valid. The result becomes next's base, with an empty
// overlay.
func (d *Index) fullRebuild() error {
	rg, err := d.g.freeze()
	if err != nil {
		return fmt.Errorf("dynamic: snapshotting graph for rebuild: %w", err)
	}
	bopt := d.opt.Build
	bopt.Parallelism = d.opt.RebuildParallelism
	bopt.CheckpointDir, bopt.Resume = "", false
	bopt.CollectStats = false
	x, _, err := core.BuildRanked(rg, bopt)
	if err != nil {
		return fmt.Errorf("dynamic: full rebuild: %w", err)
	}
	if d.perm != nil {
		x.Perm, x.Inv = d.perm, d.inv
	}
	d.next = newEpoch(label.Freeze(x))
	d.fullRebuilds++
	d.dirtyVertices = 0
	return nil
}

// publish swaps the epoch under construction in for readers, first
// folding its overlay into a fresh base when the compaction rule says
// so. A replicated op that changed nothing built no epoch; the epoch
// number advances all the same, in lockstep with seq.
func (d *Index) publish() {
	if e := d.next; e != nil {
		if e.wantsCompaction() {
			e = newEpoch(e.Flat())
			d.compactions++
		}
		d.cur.Store(e)
		d.next = nil
	}
	d.epoch.Add(1)
}

// Stats snapshots the maintenance counters.
func (d *Index) Stats() wire.UpdateStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	e := d.cur.Load()
	st := wire.UpdateStats{
		Inserts:        d.inserts,
		Deletes:        d.deletes,
		NoOps:          d.noops,
		PartialRepairs: d.partialRepairs,
		FullRebuilds:   d.fullRebuilds,
		DirtyVertices:  d.dirtyVertices,
		OverlayRows:    e.overlayRows,
		OverlayEntries: e.overlayEntries,
		Compactions:    d.compactions,
		Epoch:          d.epoch.Load(),
		Seq:            d.seq.Load(),
	}
	if d.n > 0 {
		st.Staleness = float64(d.dirtyVertices) / float64(d.n)
	}
	return st
}

// Anomalies reports how often a maintenance search reached an uncovered
// vertex outranking its root — impossible if the rank-order correctness
// argument holds, counted defensively. Tests assert it stays zero.
func (d *Index) Anomalies() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.anomalies
}

// Validate checks the current epoch's structural invariants row by row;
// see label.Index.Validate. For tests.
func (d *Index) Validate() error {
	return d.Current().view().Validate()
}
