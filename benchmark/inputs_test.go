package main

import (
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func testGraph(t *testing.T, n int32, directed bool) *graph.Graph {
	t.Helper()
	var (
		g   *graph.Graph
		err error
	)
	if directed {
		g, err = gen.PowerLaw(gen.PowerLawParams{N: n, Density: 5, Alpha: 2.3, Directed: true, Seed: 3})
	} else {
		g, err = gen.GLP(gen.DefaultGLP(n, 4, 3))
	}
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestZipfPoolIsSeedDeterministicAndHubHeavy(t *testing.T) {
	g := testGraph(t, 1000, false)
	a := zipfPool(g, 1<<13, newStream(5, 3))
	b := zipfPool(g, 1<<13, newStream(5, 3))
	c := zipfPool(g, 1<<13, newStream(6, 3))
	if !reflect.DeepEqual(a.pairs, b.pairs) {
		t.Fatal("the same seed drew different zipf pools")
	}
	if reflect.DeepEqual(a.pairs, c.pairs) {
		t.Fatal("different seeds drew the same zipf pool")
	}
	byDeg := degreeRanked(g)
	for i := 1; i < len(byDeg); i++ {
		if g.Degree(byDeg[i-1]) < g.Degree(byDeg[i]) {
			t.Fatalf("degreeRanked out of order at %d", i)
		}
	}
	// Endpoints concentrate on the hubs: the top-degree vertex is drawn
	// far more often than a uniform draw would (2*8192/1000 = 16 times).
	top := 0
	for _, p := range a.pairs {
		if p.S == byDeg[0] {
			top++
		}
		if p.T == byDeg[0] {
			top++
		}
	}
	if top < 1000 {
		t.Errorf("biggest hub drawn %d times in %d endpoints; zipf(1.1) should draw it thousands of times", top, 2*len(a.pairs))
	}
}

func TestUniformPoolLeadsWithTruthSample(t *testing.T) {
	g := testGraph(t, 500, true)
	ts := newTruthSample(g, newStream(1, 1))
	if len(ts.pairs) != oracleSources*oracleTargets {
		t.Fatalf("truth sample has %d pairs, want %d", len(ts.pairs), oracleSources*oracleTargets)
	}
	pool := uniformPool(g.N(), 1<<11, ts, newStream(1, 2))
	if len(pool.pairs) != 1<<11 || !reflect.DeepEqual(pool.pairs[:len(ts.pairs)], ts.pairs) {
		t.Fatal("uniform pool does not start with the truth sample")
	}
}

func TestScheduleIsSeedDeterministicAndWellFormed(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := testGraph(t, 1500, directed)
		spec := scheduleSpec{Inserts: 120, Deletes: 4}
		a, err := newSchedule(g, spec, newStream(9, 4))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newSchedule(g, spec, newStream(9, 4))
		c, _ := newSchedule(g, spec, newStream(10, 4))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("directed=%v: the same seed built different schedules", directed)
		}
		if reflect.DeepEqual(a, c) {
			t.Fatalf("directed=%v: different seeds built the same schedule", directed)
		}

		type edge struct{ u, v int32 }
		key := func(u, v int32) edge {
			if !directed && u > v {
				u, v = v, u
			}
			return edge{u, v}
		}
		present := map[edge]bool{}
		inserts, deletes := 0, 0
		for i, op := range a {
			k := key(op.U, op.V)
			if op.Insert {
				inserts++
				if op.Class != 'i' || op.U == op.V || g.HasEdge(op.U, op.V) || present[k] {
					t.Fatalf("directed=%v op %d: insert %+v is not a fresh non-edge", directed, i, op)
				}
				present[k] = true
				continue
			}
			deletes++
			// Deletes come right after every 30th insert.
			if inserts%(spec.Inserts/spec.Deletes) != 0 || !a[i-1].Insert {
				t.Fatalf("directed=%v op %d: delete after %d inserts", directed, i, inserts)
			}
			switch op.Class {
			case 'p': // the edge inserted just before it
				if k != key(a[i-1].U, a[i-1].V) {
					t.Fatalf("directed=%v op %d: partial delete %+v does not remove the preceding insert %+v", directed, i, op, a[i-1])
				}
				delete(present, k)
			case 'r': // an original edge, removed once
				if !g.HasEdge(op.U, op.V) || present[k] {
					t.Fatalf("directed=%v op %d: rebuild delete %+v is not an untouched original edge", directed, i, op)
				}
				present[k] = true // must not be chosen again
			default:
				t.Fatalf("directed=%v op %d: delete with class %q", directed, i, op.Class)
			}
		}
		if inserts != spec.Inserts || deletes != spec.Deletes {
			t.Fatalf("directed=%v: %d inserts and %d deletes, want %d and %d", directed, inserts, deletes, spec.Inserts, spec.Deletes)
		}

		final, err := applySchedule(g, a)
		if err != nil {
			t.Fatal(err)
		}
		state := map[edge]bool{}
		for _, op := range a {
			state[key(op.U, op.V)] = op.Insert
		}
		for k, want := range state {
			if got := final.HasEdge(k.u, k.v); got != want {
				t.Fatalf("directed=%v: after the schedule HasEdge(%d,%d) = %v, want %v", directed, k.u, k.v, got, want)
			}
		}
		if got, want := final.EdgeCount(), g.EdgeCount()+int64(spec.Inserts-spec.Deletes); got != want {
			t.Fatalf("directed=%v: final graph has %d edges, want %d", directed, got, want)
		}
	}
}

// suspectShare must count exactly the roots dynamic.DeleteEdge treats as
// suspect for an existing undirected edge: those at different distances
// from its endpoints.
func TestSuspectShareOnAPath(t *testing.T) {
	g, err := gen.Path(10, false)
	if err != nil {
		t.Fatal(err)
	}
	var scratch [4][]uint32
	for i := range scratch {
		scratch[i] = make([]uint32, g.N())
	}
	// Every vertex of a path is at different distances from two adjacent
	// vertices.
	if got := suspectShare(g, 4, 5, scratch); got != 1 {
		t.Errorf("suspectShare on a path edge = %v, want 1", got)
	}
	star, err := gen.Star(10)
	if err != nil {
		t.Fatal(err)
	}
	// Inserting an edge between two leaves of a star: only the two
	// leaves themselves see its endpoints at different distances.
	if got := suspectShare(star, 3, 7, scratch); got != 0.2 {
		t.Errorf("suspectShare between star leaves = %v, want 0.2", got)
	}
}
