package dynamic

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/wire"
)

func TestJournalSequencing(t *testing.T) {
	g := pathGraph(t, 8)
	d := newDyn(t, g, Options{})

	if d.Seq() != 0 || d.Epoch() != 0 {
		t.Fatalf("fresh index at seq %d epoch %d, want 0/0", d.Seq(), d.Epoch())
	}
	if err := d.InsertEdge(0, 7, 1); err != nil {
		t.Fatal(err)
	}
	// Re-inserting at no better weight is a no-op and must NOT consume a
	// sequence number: replicas replay only effective mutations.
	if err := d.InsertEdge(0, 7, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.DeleteEdge(3, 4); err != nil {
		t.Fatal(err)
	}
	if d.Seq() != 2 || d.Epoch() != 2 {
		t.Fatalf("after insert+noop+delete: seq %d epoch %d, want 2/2", d.Seq(), d.Epoch())
	}

	log, err := d.ReplicationLog(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []wire.SeqEdgeOp{
		{Seq: 1, Epoch: 1, EdgeOp: wire.EdgeOp{Op: wire.OpInsert, U: 0, V: 7, W: 1}},
		{Seq: 2, Epoch: 2, EdgeOp: wire.EdgeOp{Op: wire.OpDelete, U: 3, V: 4}},
	}
	if len(log.Ops) != len(want) || log.Seq != 2 || log.Epoch != 2 {
		t.Fatalf("log = %+v, want 2 ops at head 2/2", log)
	}
	for i, op := range log.Ops {
		if op != want[i] {
			t.Fatalf("op[%d] = %+v, want %+v", i, op, want[i])
		}
	}

	// Suffix and cap semantics.
	log, err = d.ReplicationLog(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Ops) != 1 || log.Ops[0].Seq != 2 || log.Truncated {
		t.Fatalf("log since 1 = %+v, want exactly op 2", log)
	}
	log, err = d.ReplicationLog(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Ops) != 1 || log.Ops[0].Seq != 1 || !log.Truncated {
		t.Fatalf("log max 1 = %+v, want op 1 truncated", log)
	}
	// Caught up: empty, not an error.
	log, err = d.ReplicationLog(2, 0)
	if err != nil || len(log.Ops) != 0 {
		t.Fatalf("caught-up log = %+v, %v; want empty, nil", log, err)
	}
	// Past the head: the puller diverged.
	if _, err := d.ReplicationLog(3, 0); !errors.Is(err, ErrSeqGap) {
		t.Fatalf("log since 3 = %v, want ErrSeqGap", err)
	}
}

func TestJournalLimitGap(t *testing.T) {
	g := pathGraph(t, 10)
	d := newDyn(t, g, Options{JournalLimit: 2})
	for i := int32(0); i < 4; i++ {
		if err := d.InsertEdge(i, i+5, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Ops 1 and 2 fell out of the window.
	if _, err := d.ReplicationLog(0, 0); !errors.Is(err, ErrJournalGap) {
		t.Fatalf("log since 0 = %v, want ErrJournalGap", err)
	}
	if _, err := d.ReplicationLog(1, 0); !errors.Is(err, ErrJournalGap) {
		t.Fatalf("log since 1 = %v, want ErrJournalGap", err)
	}
	log, err := d.ReplicationLog(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Ops) != 2 || log.Ops[0].Seq != 3 {
		t.Fatalf("log since 2 = %+v, want ops 3..4", log)
	}
}

// TestJournalTrimAmortised pins the trim's cost and its semantics past
// the cap: the retained window and journalStart are exactly what a
// shift-per-append trim keeps, but the backing array is rewritten once
// per JournalLimit commits, not on every one.
func TestJournalTrimAmortised(t *testing.T) {
	const limit = 8
	d := newDyn(t, pathGraph(t, 4), Options{JournalLimit: limit})
	// Toggle one edge: every op is effective, so every op is journaled.
	commit := func(i int) {
		t.Helper()
		var err error
		if i%2 == 0 {
			err = d.InsertEdge(0, 3, 1)
		} else {
			err = d.DeleteEdge(0, 3)
		}
		if err != nil {
			t.Fatalf("op %d: %v", i+1, err)
		}
	}
	rewrites := 0
	for i := 0; i < 3*limit; i++ {
		var slot0 *wire.SeqEdgeOp
		var was wire.SeqEdgeOp
		if len(d.journal) > 0 {
			slot0, was = &d.journal[0], d.journal[0]
		}
		commit(i)
		if slot0 != nil && (&d.journal[0] != slot0 || d.journal[0] != was) {
			rewrites++ // reallocated by append, or shifted down by the trim
		}

		seq := int64(i + 1)
		wantStart := max(0, seq-limit)
		if d.journalStart != wantStart {
			t.Fatalf("after op %d: journalStart = %d, want %d", seq, d.journalStart, wantStart)
		}
		log, err := d.ReplicationLog(wantStart, 0)
		if err != nil {
			t.Fatalf("after op %d: %v", seq, err)
		}
		if int64(len(log.Ops)) != seq-wantStart {
			t.Fatalf("after op %d: window holds %d ops, want %d", seq, len(log.Ops), seq-wantStart)
		}
		for j, op := range log.Ops {
			wantOp := wire.OpInsert
			if (wantStart+int64(j))%2 == 1 {
				wantOp = wire.OpDelete
			}
			if op.Seq != wantStart+int64(j)+1 || op.Epoch != op.Seq || op.Op != wantOp {
				t.Fatalf("after op %d: window[%d] = %+v", seq, j, op)
			}
		}
		if wantStart > 0 {
			if _, err := d.ReplicationLog(wantStart-1, 0); !errors.Is(err, ErrJournalGap) {
				t.Fatalf("after op %d: log since %d = %v, want ErrJournalGap", seq, wantStart-1, err)
			}
		}
	}
	// Growing to 2x limit reallocates a handful of times (append doubles)
	// and the trim compacts once per limit commits past the cap; a
	// shift-per-append trim would rewrite on each of the 2*limit commits
	// past it.
	if rewrites > limit {
		t.Fatalf("backing array rewritten on %d of %d commits", rewrites, 3*limit)
	}
	if allocs := testing.AllocsPerRun(4*limit, func() { d.journalAppend(wire.SeqEdgeOp{}) }); allocs != 0 {
		t.Fatalf("steady-state journalAppend allocates %v times per op", allocs)
	}
}

func TestApplyReplicatedOrdering(t *testing.T) {
	g := pathGraph(t, 8)
	d := newDyn(t, g, Options{})

	op1 := wire.SeqEdgeOp{Seq: 1, Epoch: 1, EdgeOp: wire.EdgeOp{Op: wire.OpInsert, U: 0, V: 7, W: 1}}
	op3 := wire.SeqEdgeOp{Seq: 3, Epoch: 3, EdgeOp: wire.EdgeOp{Op: wire.OpDelete, U: 0, V: 1}}
	if err := d.ApplyReplicated(op3); !errors.Is(err, ErrSeqGap) {
		t.Fatalf("skipping ahead = %v, want ErrSeqGap", err)
	}
	if err := d.ApplyReplicated(op1); err != nil {
		t.Fatal(err)
	}
	// Replay is idempotent.
	if err := d.ApplyReplicated(op1); err != nil {
		t.Fatal(err)
	}
	if d.Seq() != 1 || d.Epoch() != 1 {
		t.Fatalf("after replayed op 1: seq %d epoch %d, want 1/1", d.Seq(), d.Epoch())
	}
	if got := d.Current().Distance(0, 7); got != 1 {
		t.Fatalf("Distance(0,7) = %d after replicated insert, want 1", got)
	}
	if a := d.Anomalies(); a != 0 {
		t.Fatalf("%d anomalies, want 0", a)
	}
}

// TestReplicationEquivalence is the acceptance property: after K mixed
// insert/delete ops at a primary, a replica that started from the same
// initial index and replayed the journal holds a byte-identical label
// epoch, and both answer exactly like a from-scratch rebuild of the
// mutated graph.
func TestReplicationEquivalence(t *testing.T) {
	shapes := []struct {
		name  string
		build func(t *testing.T) *graph.Graph
	}{
		{"glp", func(t *testing.T) *graph.Graph {
			g, err := gen.GLP(gen.DefaultGLP(150, 3, 41))
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
		{"star", func(t *testing.T) *graph.Graph {
			g, err := gen.Star(50)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
		{"directed-powerlaw", func(t *testing.T) *graph.Graph {
			g, err := gen.PowerLaw(gen.PowerLawParams{N: 70, Density: 2.5, Alpha: 2.2, Directed: true, Seed: 43})
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
		{"weighted-er", func(t *testing.T) *graph.Graph {
			g0, err := gen.ER(60, 140, false, 47)
			if err != nil {
				t.Fatal(err)
			}
			g, err := gen.WithRandomWeights(g0, 9, 47)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			g := sh.build(t)
			flat := buildFlat(t, g)
			primary, err := New(flat, g, Options{})
			if err != nil {
				t.Fatal(err)
			}
			replica, err := New(flat, g, Options{})
			if err != nil {
				t.Fatal(err)
			}

			// Drive random mutations at the primary only.
			es := newEdgeSet(g)
			rng := rand.New(rand.NewSource(7))
			ops := 80
			if testing.Short() {
				ops = 30
			}
			mutateRandomly(t, primary, es, rng, ops, ops+1)

			// Converge the replica through paged journal pulls, like the
			// pull loop does.
			for replica.Seq() < primary.Seq() {
				log, err := primary.ReplicationLog(replica.Seq(), 7)
				if err != nil {
					t.Fatalf("ReplicationLog(%d): %v", replica.Seq(), err)
				}
				if len(log.Ops) == 0 {
					t.Fatalf("empty log page at seq %d with primary at %d", replica.Seq(), log.Seq)
				}
				for _, op := range log.Ops {
					if err := replica.ApplyReplicated(op); err != nil {
						t.Fatalf("ApplyReplicated(seq %d): %v", op.Seq, err)
					}
				}
			}

			if replica.Seq() != primary.Seq() || replica.Epoch() != primary.Epoch() {
				t.Fatalf("replica at seq %d epoch %d, primary at %d/%d",
					replica.Seq(), replica.Epoch(), primary.Seq(), primary.Epoch())
			}
			if a := replica.Anomalies(); a != 0 {
				t.Fatalf("replica recorded %d anomalies, want 0", a)
			}

			// Byte-identical label epochs.
			var pb, rb bytes.Buffer
			if err := primary.Current().Flat().Write(&pb); err != nil {
				t.Fatal(err)
			}
			if err := replica.Current().Flat().Write(&rb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pb.Bytes(), rb.Bytes()) {
				t.Fatalf("replica epoch differs from primary: %d vs %d bytes", rb.Len(), pb.Len())
			}

			// Both answer exactly like a from-scratch rebuild.
			rebuilt := rebuildFlat(t, es.build(t))
			assertEquivalent(t, replica, rebuilt, "replica vs rebuild")
			assertEquivalent(t, primary, rebuilt, "primary vs rebuild")
		})
	}
}

// TestReplicationEquivalenceChained pins that replicas serve their own
// journal onward: a second-tier replica pulling from a first-tier one
// converges to the same bytes as the primary.
func TestReplicationEquivalenceChained(t *testing.T) {
	g, err := gen.GLP(gen.DefaultGLP(100, 3, 53))
	if err != nil {
		t.Fatal(err)
	}
	flat := buildFlat(t, g)
	tier := make([]*Index, 3) // primary, mid, leaf
	for i := range tier {
		if tier[i], err = New(flat, g, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	es := newEdgeSet(g)
	mutateRandomly(t, tier[0], es, rand.New(rand.NewSource(11)), 40, 41)

	for lvl := 1; lvl < len(tier); lvl++ {
		up, down := tier[lvl-1], tier[lvl]
		for down.Seq() < up.Seq() {
			log, err := up.ReplicationLog(down.Seq(), 5)
			if err != nil {
				t.Fatalf("tier %d log: %v", lvl, err)
			}
			for _, op := range log.Ops {
				if err := down.ApplyReplicated(op); err != nil {
					t.Fatalf("tier %d apply seq %d: %v", lvl, op.Seq, err)
				}
			}
		}
	}
	var bufs [3]bytes.Buffer
	for i, d := range tier {
		if err := d.Current().Flat().Write(&bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < len(tier); i++ {
		if !bytes.Equal(bufs[0].Bytes(), bufs[i].Bytes()) {
			t.Fatalf("tier %d epoch differs from primary", i)
		}
	}
}

// TestJournalWeightNormalization pins that journal entries carry the
// weight the primary actually applied (normalized), not the raw request.
func TestJournalWeightNormalization(t *testing.T) {
	g0, err := gen.ER(20, 40, false, 3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.WithRandomWeights(g0, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := newDyn(t, g, Options{})
	// Find a non-edge.
	var u, v int32 = -1, -1
	es := newEdgeSet(g)
	for a := int32(0); a < g.N() && u < 0; a++ {
		for b := a + 1; b < g.N(); b++ {
			if !es.has(a, b) {
				u, v = a, b
				break
			}
		}
	}
	if u < 0 {
		t.Skip("no free pair")
	}
	if err := d.InsertEdge(u, v, -3); err != nil { // <= 0 normalizes to 1
		t.Fatal(err)
	}
	log, err := d.ReplicationLog(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%s %d %d %d", log.Ops[0].Op, log.Ops[0].U, log.Ops[0].V, log.Ops[0].W) !=
		fmt.Sprintf("insert %d %d 1", u, v) {
		t.Fatalf("journaled op = %+v, want normalized weight 1", log.Ops[0])
	}
}

// TestReplicaSeededFromSnapshot pins the reseed path: a replica built
// from a snapshot of the primary's current state (labels + graph) at
// sequence N, opened with InitialSeq N, resumes pulling from N — even
// after the primary trimmed its earlier journal — and converges to the
// same bytes.
func TestReplicaSeededFromSnapshot(t *testing.T) {
	g, err := gen.GLP(gen.DefaultGLP(120, 3, 61))
	if err != nil {
		t.Fatal(err)
	}
	// Journal window smaller than the pre-snapshot history (so a seq-0
	// replica cannot join) but large enough to retain everything after
	// the snapshot.
	primary, err := New(buildFlat(t, g), g, Options{JournalLimit: 15})
	if err != nil {
		t.Fatal(err)
	}
	es := newEdgeSet(g)
	rng := rand.New(rand.NewSource(13))
	mutateRandomly(t, primary, es, rng, 30, 31)
	snapSeq := primary.Seq()

	// A fresh replica at seq 0 cannot join: the history is gone.
	if _, err := primary.ReplicationLog(0, 0); !errors.Is(err, ErrJournalGap) {
		t.Fatalf("log since 0 after trim = %v, want ErrJournalGap", err)
	}

	// Snapshot = current labels + current graph + current seq.
	replica, err := New(primary.Current().Flat(), es.build(t), Options{InitialSeq: snapSeq})
	if err != nil {
		t.Fatal(err)
	}
	if replica.Seq() != snapSeq || replica.Epoch() != snapSeq {
		t.Fatalf("seeded replica at seq %d epoch %d, want %d/%d",
			replica.Seq(), replica.Epoch(), snapSeq, snapSeq)
	}

	// More mutations at the primary; the replica catches up from the
	// snapshot position.
	mutateRandomly(t, primary, es, rng, 10, 11)
	for replica.Seq() < primary.Seq() {
		log, err := primary.ReplicationLog(replica.Seq(), 3)
		if err != nil {
			t.Fatalf("ReplicationLog(%d): %v", replica.Seq(), err)
		}
		for _, op := range log.Ops {
			if err := replica.ApplyReplicated(op); err != nil {
				t.Fatalf("ApplyReplicated(seq %d): %v", op.Seq, err)
			}
		}
	}
	var pb, rb bytes.Buffer
	if err := primary.Current().Flat().Write(&pb); err != nil {
		t.Fatal(err)
	}
	if err := replica.Current().Flat().Write(&rb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pb.Bytes(), rb.Bytes()) {
		t.Fatal("snapshot-seeded replica diverged from the primary")
	}
	if a := replica.Anomalies(); a != 0 {
		t.Fatalf("replica recorded %d anomalies, want 0", a)
	}
}
