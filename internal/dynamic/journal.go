package dynamic

import (
	"errors"
	"fmt"

	"repro/internal/wire"
)

// The replication journal: every effective mutation commits under a
// monotonically increasing sequence number, paired with the label epoch
// it published. A replica that loaded the same initial index file and
// replays the journal in sequence order runs exactly the same
// deterministic maintenance code on exactly the same state, so its
// published epochs are byte-identical to the primary's — which is what
// lets a router treat any caught-up replica as interchangeable.

// DefaultJournalLimit is the journal cap applied when Options.JournalLimit
// is zero: one million ops (~40 MB), far more slack than any sanely
// configured pull interval needs.
const DefaultJournalLimit = 1 << 20

// Replication errors.
var (
	// ErrJournalGap is returned by ReplicationLog when the requested
	// cursor precedes the retained journal window: the puller is too far
	// behind and must reseed from a fresh snapshot.
	ErrJournalGap = errors.New("dynamic: requested ops no longer in the journal")
	// ErrSeqGap is returned by ApplyReplicated when an op arrives out of
	// sequence (a pull skipped ops), and by ReplicationLog when the
	// cursor is past the journal head (the puller diverged).
	ErrSeqGap = errors.New("dynamic: sequence out of order")
)

// commit publishes the epoch under construction and journals the
// mutation under the next sequence number. Caller holds mu and has
// already applied the mutation.
func (d *Index) commit(op string, u, v, w int32) {
	d.publish()
	seq := d.seq.Add(1)
	d.journalAppend(wire.SeqEdgeOp{
		Seq:    seq,
		Epoch:  d.epoch.Load(),
		EdgeOp: wire.EdgeOp{Op: op, U: u, V: v, W: w},
	})
}

// journalAppend records one committed op, trimming the window to the
// configured cap. Trimming advances journalHead instead of shifting the
// window down on every append; the dead prefix is reclaimed only once it
// is as long as the live window, so a commit past the cap costs
// amortised O(1), not O(JournalLimit). Caller holds mu.
func (d *Index) journalAppend(e wire.SeqEdgeOp) {
	d.journal = append(d.journal, e)
	limit := d.opt.JournalLimit
	if live := len(d.journal) - d.journalHead; limit > 0 && live > limit {
		d.journalHead += live - limit
		d.journalStart += int64(live - limit)
		if d.journalHead >= limit {
			d.journal = d.journal[:copy(d.journal, d.journal[d.journalHead:])]
			d.journalHead = 0
		}
	}
}

// Seq returns the sequence number of the last committed mutation (zero
// before the first). It is safe to call concurrently with writers.
func (d *Index) Seq() int64 { return d.seq.Load() }

// Epoch returns the current published label epoch. It is safe to call
// concurrently with writers.
func (d *Index) Epoch() int64 { return d.epoch.Load() }

// ReplicationLog returns the journaled mutations with since < op.Seq, in
// sequence order, capped at max ops when max > 0 (Truncated reports the
// cap was hit). It returns ErrJournalGap when since precedes the
// retained window and ErrSeqGap when since is past the head.
func (d *Index) ReplicationLog(since int64, max int) (wire.ReplicationLog, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	log := wire.ReplicationLog{Since: since, Seq: d.seq.Load(), Epoch: d.epoch.Load()}
	if since > log.Seq {
		return log, fmt.Errorf("%w: since=%d is past the journal head %d", ErrSeqGap, since, log.Seq)
	}
	if since < d.journalStart {
		return log, fmt.Errorf("%w: since=%d but only ops after %d are retained; reseed from a fresh snapshot",
			ErrJournalGap, since, d.journalStart)
	}
	ops := d.journal[d.journalHead+int(since-d.journalStart):]
	if max > 0 && len(ops) > max {
		ops = ops[:max]
		log.Truncated = true
	}
	// Copy: writers append to (and compact) the backing array under mu.
	log.Ops = append([]wire.SeqEdgeOp(nil), ops...)
	return log, nil
}

// ApplyReplicated applies one journaled op pulled from a primary,
// adopting its sequence number instead of assigning a fresh one, so this
// index's journal (and response tagging) stays aligned with the
// primary's numbering — including onward, when a replica serves its own
// ReplicationLog to a chained puller.
//
// Ops at or below the current sequence are ignored (pulls may overlap);
// an op skipping ahead returns ErrSeqGap without touching anything. A
// delete of a missing edge or a no-op insert — impossible while replica
// and primary agree, since the primary only journals effective mutations
// — is absorbed with the sequence still advancing, and counted in
// Anomalies as divergence evidence.
func (d *Index) ApplyReplicated(op wire.SeqEdgeOp) error {
	if err := d.checkEndpoints(op.U, op.V); err != nil {
		return err
	}
	w := op.W
	var err error
	switch op.Op {
	case wire.OpInsert:
		if w, err = d.normalizeWeight(w); err != nil {
			return err
		}
	case wire.OpDelete:
	default:
		return fmt.Errorf("dynamic: unknown replicated op %q", op.Op)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	cur := d.seq.Load()
	if op.Seq <= cur {
		return nil
	}
	if op.Seq != cur+1 {
		return fmt.Errorf("%w: got op seq %d, expected %d", ErrSeqGap, op.Seq, cur+1)
	}
	switch op.Op {
	case wire.OpInsert:
		if d.insertLocked(op.U, op.V, w) {
			d.inserts++
		} else {
			d.anomalies++
		}
	case wire.OpDelete:
		switch err := d.deleteLocked(op.U, op.V); {
		case err == nil:
			d.deletes++
		case errors.Is(err, ErrNoEdge):
			d.anomalies++
		default:
			// A failed rebuild left graph and labels unchanged; the op
			// can be retried by the next pull.
			return err
		}
	}
	d.publish()
	d.seq.Store(op.Seq)
	if d.epoch.Load() != op.Epoch {
		// Epoch and seq advance in lockstep on both sides, so a mismatch
		// means the histories diverged somewhere upstream.
		d.anomalies++
	}
	d.journalAppend(wire.SeqEdgeOp{
		Seq:    op.Seq,
		Epoch:  d.epoch.Load(),
		EdgeOp: wire.EdgeOp{Op: op.Op, U: op.U, V: op.V, W: w},
	})
	return nil
}
