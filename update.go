package hopdb

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/dynamic"
	"repro/internal/wire"
)

// UpdateStats describes what online label maintenance has done so far;
// see Updatable.UpdateStats and the /v1/stats "updates" section.
type UpdateStats = wire.UpdateStats

// EdgeOp is one edge mutation: the element type of ApplyEdgeOps, of
// delta files (ParseEdgeDelta), and of POST /v1/admin/edges bodies.
type EdgeOp = wire.EdgeOp

// Edge operation names for EdgeOp.Op.
const (
	OpInsert = wire.OpInsert
	OpDelete = wire.OpDelete
)

// Update errors, re-exported from the maintenance engine for errors.Is.
var (
	// ErrNoEdge is returned by DeleteEdge when the edge does not exist.
	ErrNoEdge = dynamic.ErrNoEdge
	// ErrVertexRange is returned when an update names a vertex outside
	// [0, N); the vertex set of an updatable index is fixed at open time.
	ErrVertexRange = dynamic.ErrVertexRange
	// ErrSelfLoop is returned for updates with u == v.
	ErrSelfLoop = dynamic.ErrSelfLoop
	// ErrWeightRange is returned for insert weights beyond the graph
	// weight bound.
	ErrWeightRange = dynamic.ErrWeightRange
	// ErrUnknownOp is returned by ApplyEdgeOps for an EdgeOp whose Op is
	// neither OpInsert nor OpDelete.
	ErrUnknownOp = errors.New("hopdb: unknown edge op")
	// ErrJournalGap is returned by Replicator.ReplicationLog when the
	// requested cursor precedes the retained journal window: the puller
	// must reseed from a fresh snapshot.
	ErrJournalGap = dynamic.ErrJournalGap
	// ErrSeqGap is returned for out-of-order replication sequence numbers
	// (a pull skipped ops, or the cursor is past the journal head).
	ErrSeqGap = dynamic.ErrSeqGap
)

// ReplicationOp is one journaled edge mutation: an EdgeOp stamped with
// the sequence number it committed at and the label epoch it published.
type ReplicationOp = wire.SeqEdgeOp

// ReplicationLog is a journal suffix plus the serving head, as returned
// by Replicator.ReplicationLog and GET /v1/admin/replication/log.
type ReplicationLog = wire.ReplicationLog

// Replicator is the optional extension of Updatable for backends that
// journal their mutations for replication: an index opened with
// WithUpdates. A primary serves its journal through ReplicationLog;
// replicas that loaded the same index file replay it in order through
// ApplyReplicated, converging to byte-identical label epochs (the
// maintenance code is deterministic). Seq is the read-your-writes
// currency: servers stamp it on every response, and clients demand it
// with the X-Hopdb-Min-Seq header.
type Replicator interface {
	// Seq returns the sequence number of the last committed mutation
	// (zero before the first). Lock-free: safe to call per response.
	Seq() int64
	// Epoch returns the current published label epoch. Lock-free.
	Epoch() int64
	// ReplicationLog returns the journaled ops after since (capped at
	// max when max > 0). ErrJournalGap means since is older than the
	// retained window; ErrSeqGap means it is past the head.
	ReplicationLog(since int64, max int) (ReplicationLog, error)
	// ApplyReplicated applies one pulled op under the primary's sequence
	// number. Ops at or below the current sequence are ignored; a gap
	// returns ErrSeqGap.
	ApplyReplicated(op ReplicationOp) error
}

// UpdateOptions tunes online label maintenance; see WithUpdates.
type UpdateOptions struct {
	// MaxStaleFraction is the dirty-vertex budget (as a fraction of the
	// vertex count) a DeleteEdge may accumulate before the labels are
	// rebuilt from scratch instead of partially repaired. Zero selects
	// the default of 0.25.
	MaxStaleFraction float64
	// RebuildParallelism shards full rebuilds across goroutines;
	// <= 1 rebuilds serially.
	RebuildParallelism int
	// JournalLimit bounds the in-memory replication journal, in ops.
	// Zero selects the default of one million; negative keeps it
	// unbounded. See Replicator.
	JournalLimit int
	// InitialSeq positions the index at a non-zero journal sequence:
	// set it when the index file is a snapshot of a primary that had
	// already committed InitialSeq mutations (its /v1/stats updates.seq
	// at save time), so a replica resumes pulling from there instead of
	// replaying — or failing to obtain — the primary's earlier history.
	InitialSeq int64
	// Rebuild carries the build options the index was originally
	// constructed with, so a staleness-triggered full rebuild reproduces
	// the same labeling regime (method, switch point, pruning mode)
	// instead of reverting to defaults. Construction-only fields
	// (External, CheckpointDir, Resume) are ignored; Parallelism is
	// superseded by RebuildParallelism. Nil keeps default options, which
	// is correct for indexes built with default options.
	Rebuild *Options
}

// Updatable is the optional extension of Querier for backends that
// accept online edge updates: an index opened with WithUpdates. Insert
// and delete both publish a fresh immutable label epoch before
// returning, so concurrent Distance readers never block and never
// observe a half-applied update — each query (and each batch) answers
// from either the pre- or the post-update graph.
type Updatable interface {
	// InsertEdge adds the edge u->v (undirected: {u,v}) with weight w
	// (ignored for unweighted graphs; <= 0 means 1) and patches the
	// labels incrementally. Inserting an existing edge is a no-op
	// unless the weight improves.
	InsertEdge(u, v, w int32) error
	// DeleteEdge removes the edge u->v, repairing the affected labels
	// (or rebuilding them past the staleness threshold). Returns
	// ErrNoEdge if the edge is not present.
	DeleteEdge(u, v int32) error
	// UpdateStats snapshots the maintenance counters.
	UpdateStats() UpdateStats
	// Save writes the current label epoch in the v2 flat format, so a
	// patched index can be reopened later (heap or mmap) without a
	// rebuild.
	Save(path string) error
}

// updatable is what Open returns with WithUpdates: the one in-memory
// Index, whose engine was built with the writer, plus the mutators
// forwarded to it. Queries, Save and Path are the Index's own; a
// read-only open returns the bare *Index, so a Querier implements
// Updatable exactly when it was opened for updates.
type updatable struct{ *Index }

func (u updatable) InsertEdge(a, b, w int32) error { return u.eng.InsertEdge(a, b, w) }
func (u updatable) DeleteEdge(a, b int32) error    { return u.eng.DeleteEdge(a, b) }
func (u updatable) UpdateStats() UpdateStats       { return u.eng.Stats() }

// Replicator implementation: the maintenance engine journals every
// effective mutation.
func (u updatable) Seq() int64   { return u.eng.Seq() }
func (u updatable) Epoch() int64 { return u.eng.Epoch() }
func (u updatable) ReplicationLog(since int64, max int) (ReplicationLog, error) {
	return u.eng.ReplicationLog(since, max)
}
func (u updatable) ApplyReplicated(op ReplicationOp) error { return u.eng.ApplyReplicated(op) }

// ApplyEdgeOps applies ops to an updatable index in order, returning how
// many were applied and the first failure (ops after it are not
// attempted, so a caller can fix the offending op and resume from it).
func ApplyEdgeOps(u Updatable, ops []EdgeOp) (int, error) {
	for i, op := range ops {
		var err error
		switch op.Op {
		case OpInsert:
			err = u.InsertEdge(op.U, op.V, op.W)
		case OpDelete:
			err = u.DeleteEdge(op.U, op.V)
		default:
			err = fmt.Errorf("%w %q (want %q or %q)", ErrUnknownOp, op.Op, OpInsert, OpDelete)
		}
		if err != nil {
			return i, fmt.Errorf("op %d (%s %d %d): %w", i, op.Op, op.U, op.V, err)
		}
	}
	return len(ops), nil
}

// ParseEdgeDelta reads a textual edge-delta stream, one operation per
// line ('#' and '%' start comments, blank lines are skipped):
//
//	"+ u v"      insert edge (weight 1)
//	"+ u v w"    insert edge with weight w (weighted graphs)
//	"- u v"      delete edge
//
// It is the format hopdb-update applies to an on-disk index.
func ParseEdgeDelta(r io.Reader) ([]EdgeOp, error) {
	var ops []EdgeOp
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexAny(line, "#%"); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		op := EdgeOp{}
		switch fields[0] {
		case "+":
			op.Op = OpInsert
			if len(fields) != 3 && len(fields) != 4 {
				return nil, fmt.Errorf("hopdb: delta line %d: want \"+ u v [w]\", got %q", lineNo, sc.Text())
			}
		case "-":
			op.Op = OpDelete
			if len(fields) != 3 {
				return nil, fmt.Errorf("hopdb: delta line %d: want \"- u v\", got %q", lineNo, sc.Text())
			}
		default:
			return nil, fmt.Errorf("hopdb: delta line %d: operations start with + or -, got %q", lineNo, sc.Text())
		}
		parse := func(s, what string) (int32, error) {
			v, err := strconv.ParseInt(s, 10, 32)
			if err != nil {
				return 0, fmt.Errorf("hopdb: delta line %d: bad %s %q", lineNo, what, s)
			}
			return int32(v), nil
		}
		var err error
		if op.U, err = parse(fields[1], "vertex"); err != nil {
			return nil, err
		}
		if op.V, err = parse(fields[2], "vertex"); err != nil {
			return nil, err
		}
		if len(fields) == 4 {
			if op.W, err = parse(fields[3], "weight"); err != nil {
				return nil, err
			}
		}
		ops = append(ops, op)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("hopdb: reading delta: %w", err)
	}
	return ops, nil
}
