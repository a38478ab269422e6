package main

import (
	"testing"

	hopdb "repro"
)

// lyingQuerier answers like the index it wraps, except that one pair
// gets a wrong distance.
type lyingQuerier struct {
	hopdb.Querier
	s, t int32
}

func (q lyingQuerier) Distance(s, t int32) (uint32, bool) {
	d, ok := q.Querier.Distance(s, t)
	if s == q.s && t == q.t {
		return d + 1, true
	}
	return d, ok
}

func (q lyingQuerier) Lookup(s, t int32) (uint32, bool, error) {
	d, ok := q.Distance(s, t)
	return d, ok, nil
}

func (q lyingQuerier) DistanceBatchInto(results []uint32, pairs []hopdb.QueryPair, workers int) []uint32 {
	results = results[:len(pairs)]
	for i, p := range pairs {
		results[i], _ = q.Distance(p.S, p.T)
	}
	return results
}

func (q lyingQuerier) LookupBatchInto(results []uint32, pairs []hopdb.QueryPair, workers int) ([]uint32, error) {
	return q.DistanceBatchInto(results, pairs, workers), nil
}

// The correctness gate: a wrong answer injected through a fake Querier
// is counted as a failed operation by the oracle check, by the GET
// loop and by the batch loop — and nothing else is.
func TestWrongAnswerIsCountedAsFailure(t *testing.T) {
	g := testGraph(t, 400, false)
	idx, _, err := hopdb.Build(g, hopdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := newTruthSample(g, newStream(1, 1))
	pool := uniformPool(g.N(), 1<<11, ts, newStream(1, 2))
	pool.fillExpect(idx)
	bodies := batchBodies(pool)

	chk := &checker{}
	ts.check(viaQuerier(idx), "honest index", chk)
	if chk.failed.Load() != 0 || chk.attempted.Load() != int64(len(ts.pairs)) {
		t.Fatalf("honest index: %d failed of %d attempted, want 0 of %d", chk.failed.Load(), chk.attempted.Load(), len(ts.pairs))
	}

	// Lie about a pair that occurs exactly once in the pool.
	victim := -1
	for i, p := range pool.pairs {
		seen := 0
		for _, q := range pool.pairs {
			if q == p {
				seen++
			}
		}
		if seen == 1 && i >= len(ts.pairs) && p.S != p.T {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no unique pair to lie about")
	}
	liar := lyingQuerier{Querier: idx, s: pool.pairs[victim].S, t: pool.pairs[victim].T}

	chk = &checker{}
	fx := newSingleFixture(liar, 0, nil)
	rt := &inprocTransport{h: fx.handler}
	warmServe(rt, benchHost, pool, bodies, len(pool.pairs), len(bodies), chk)
	if got := chk.failed.Load(); got != 2 {
		t.Errorf("serving a liar: %d failed operations, want 2 (one GET, one batch); %v", got, chk.failures())
	}
	if want := int64(len(pool.pairs) + len(bodies)); chk.attempted.Load() != want {
		t.Errorf("attempted = %d, want %d", chk.attempted.Load(), want)
	}

	// And the oracle catches a lie about one of its own pairs.
	chk = &checker{}
	first := ts.pairs[0]
	ts.check(viaQuerier(lyingQuerier{Querier: idx, s: first.S, t: first.T}), "lying index", chk)
	wantFailed := int64(0)
	for _, p := range ts.pairs {
		if p == first {
			wantFailed++
		}
	}
	if chk.failed.Load() != wantFailed || wantFailed == 0 {
		t.Errorf("oracle check of a liar: %d failed, want %d", chk.failed.Load(), wantFailed)
	}
	if len(chk.failures()) == 0 {
		t.Error("no failure message retained")
	}
}
