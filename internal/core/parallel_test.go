package core

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/order"
)

// TestParallelEquivalence: the parallel build must produce a byte-
// identical serialized index to the serial build for every method and
// shape, and the stats must report the clamped effective worker count.
// The 60-vertex shapes fit in one work unit; the large ones start with
// at least 20 units, so workers really share an iteration.
func TestParallelEquivalence(t *testing.T) {
	er := func(directed bool, weighted bool) func() (*graph.Graph, error) {
		return func() (*graph.Graph, error) {
			g, err := gen.ER(60, 180, directed, 21)
			if err != nil || !weighted {
				return g, err
			}
			return gen.WithRandomWeights(g, 5, 22)
		}
	}
	shapes := []struct {
		name  string
		large bool
		make  func() (*graph.Graph, error)
	}{
		{"er-undirected", false, er(false, false)},
		{"er-directed", false, er(true, false)},
		{"er-weighted-directed", false, er(true, true)},
		{"glp-large", true, func() (*graph.Graph, error) { return gen.GLP(gen.DefaultGLP(3000, 3, 41)) }},
		{"powerlaw-weighted-directed-large", true, func() (*graph.Graph, error) {
			g, err := gen.PowerLaw(gen.PowerLawParams{N: 3000, Density: 2.5, Alpha: 2.3, Directed: true, Seed: 42})
			if err != nil {
				return nil, err
			}
			return gen.WithRandomWeights(g, 5, 43)
		}},
	}
	for _, sh := range shapes {
		g, err := sh.make()
		if err != nil {
			t.Fatal(err)
		}
		if sh.large && g.EdgeCount() < 20*rangeEntries {
			t.Fatalf("%s: %d edges seed fewer than 20 work units of %d entries", sh.name, g.EdgeCount(), rangeEntries)
		}
		for _, m := range []Method{Hybrid, Doubling, Stepping} {
			serial, sst, err := Build(g, Options{Method: m})
			if err != nil {
				t.Fatal(err)
			}
			if sst.Workers != 1 {
				t.Fatalf("serial build reports %d workers, want 1", sst.Workers)
			}
			serialBytes := indexBytes(t, serial)
			for _, workers := range []int{2, 3, 8} {
				par, pst, err := Build(g, Options{Method: m, Parallelism: workers})
				if err != nil {
					t.Fatal(err)
				}
				if !serial.Equal(par) {
					t.Fatalf("%s method=%v workers=%d: parallel build differs", sh.name, m, workers)
				}
				if !bytes.Equal(serialBytes, indexBytes(t, par)) {
					t.Fatalf("%s method=%v workers=%d: serialized index not byte-identical", sh.name, m, workers)
				}
				if want := effectiveWorkers(workers); pst.Workers != want {
					t.Fatalf("workers=%d: stats report %d effective workers, want %d", workers, pst.Workers, want)
				}
			}
		}
	}
}

// TestParallelScaleFree checks a larger graph with stats parity.
func TestParallelScaleFree(t *testing.T) {
	g, err := gen.GLP(gen.DefaultGLP(900, 4, 33))
	if err != nil {
		t.Fatal(err)
	}
	serial, st1, err := Build(g, Options{Method: Hybrid, CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	par, st2, err := Build(g, Options{Method: Hybrid, CollectStats: true, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !serial.Equal(par) {
		t.Fatal("parallel scale-free build differs")
	}
	if st1.Iterations != st2.Iterations || st1.TotalCandidates != st2.TotalCandidates || st1.TotalPruned != st2.TotalPruned {
		t.Errorf("stats differ: serial {it=%d c=%d p=%d} parallel {it=%d c=%d p=%d}",
			st1.Iterations, st1.TotalCandidates, st1.TotalPruned,
			st2.Iterations, st2.TotalCandidates, st2.TotalPruned)
	}
}

// iterCounts is one iteration's work counters: rule firings, distinct
// candidates, pruned candidates, and survivors.
type iterCounts struct{ raw, cands, pruned, survivors int64 }

// goldenRun is one build of TestIterationCountsGolden's table: a graph,
// a method, pruning on or off, and every iteration's counters.
type goldenRun struct {
	graph   string
	method  Method
	noPrune bool
	iters   []iterCounts
}

// goldenRuns are the per-iteration counters of the sort-based builder
// the pivot-grouped pass replaced, on goldenGraphs. The directed
// power-law graph runs past SwitchIteration, so its hybrid build covers
// doubling iterations too.
var goldenRuns = []goldenRun{
	{"glp", Hybrid, false, []iterCounts{{169344, 53846, 28722, 25124}, {53981, 16487, 15169, 1318}, {1369, 1043, 1037, 6}, {6, 6, 6, 0}}},
	{"glp", Doubling, false, []iterCounts{{169344, 53846, 28722, 25124}, {320352, 21953, 20598, 1355}, {20923, 5033, 5033, 0}}},
	{"glp", Stepping, false, []iterCounts{{169344, 53846, 28722, 25124}, {53981, 16487, 15169, 1318}, {1369, 1043, 1037, 6}, {6, 6, 6, 0}}},
	{"powerlaw", Hybrid, false, []iterCounts{{1504, 1462, 84, 1378}, {1604, 1521, 215, 1306}, {1717, 1584, 376, 1208}, {1771, 1628, 546, 1082}, {1609, 1474, 576, 898}, {1408, 1284, 617, 667}, {1095, 995, 526, 469}, {694, 650, 375, 275}, {408, 382, 245, 137}, {201, 190, 126, 64}, {231, 207, 170, 37}, {85, 76, 76, 0}}},
	{"powerlaw", Doubling, false, []iterCounts{{1504, 1462, 84, 1378}, {2742, 2426, 392, 2034}, {8128, 5259, 2262, 2997}, {17344, 7009, 5603, 1406}, {6364, 2853, 2830, 23}, {42, 34, 34, 0}}},
	{"powerlaw", Stepping, false, []iterCounts{{1504, 1462, 84, 1378}, {1604, 1521, 215, 1306}, {1717, 1584, 376, 1208}, {1771, 1628, 546, 1082}, {1609, 1474, 576, 898}, {1408, 1284, 617, 667}, {1095, 995, 526, 469}, {694, 650, 375, 275}, {408, 382, 245, 137}, {201, 190, 126, 64}, {99, 96, 65, 31}, {36, 34, 29, 5}, {5, 5, 4, 1}, {0, 0, 0, 0}}},
	{"er", Hybrid, false, []iterCounts{{1984, 1968, 17, 1951}, {4058, 3914, 292, 3622}, {8390, 7599, 1814, 5785}, {14034, 11683, 5753, 5930}, {14925, 11945, 7700, 4245}, {10667, 8975, 6713, 2262}, {5599, 5035, 4054, 981}, {2366, 2251, 1922, 329}, {769, 747, 666, 81}, {222, 218, 199, 19}, {376, 330, 324, 6}, {174, 143, 143, 0}}},
	{"er", Doubling, false, []iterCounts{{1984, 1968, 17, 1951}, {9854, 8622, 840, 7782}, {145246, 33566, 20012, 13554}, {437733, 40259, 37085, 3174}, {89600, 20361, 20317, 44}, {1128, 709, 709, 0}}},
	{"er", Stepping, false, []iterCounts{{1984, 1968, 17, 1951}, {4058, 3914, 292, 3622}, {8390, 7599, 1814, 5785}, {14034, 11683, 5753, 5930}, {14925, 11945, 7700, 4245}, {10667, 8975, 6713, 2262}, {5599, 5035, 4054, 981}, {2366, 2251, 1922, 329}, {769, 747, 666, 81}, {222, 218, 199, 19}, {36, 36, 31, 5}, {12, 12, 11, 1}, {5, 5, 5, 0}}},
	{"powerlaw", Hybrid, true, []iterCounts{{1504, 1462, 60, 1402}, {1615, 1532, 147, 1385}, {1802, 1660, 249, 1411}, {2119, 1920, 430, 1490}, {2148, 1932, 534, 1398}, {2143, 1935, 632, 1303}, {1974, 1791, 591, 1200}, {1716, 1587, 570, 1017}, {1493, 1386, 513, 873}, {1066, 1024, 397, 627}, {3900, 2781, 1556, 1225}, {10296, 4123, 3048, 1075}, {6911, 1911, 1897, 14}, {38, 24, 24, 0}}},
}

// goldenGraphs builds the graphs goldenRuns name.
func goldenGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	glp, err := gen.GLP(gen.DefaultGLP(2000, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	powerLaw, err := gen.PowerLaw(gen.PowerLawParams{N: 1000, Density: 2, Alpha: 2.5, Directed: true, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	er, err := gen.ER(400, 1200, true, 23)
	if err != nil {
		t.Fatal(err)
	}
	if er, err = gen.WithRandomWeights(er, 9, 24); err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{"glp": glp, "powerlaw": powerLaw, "er": er}
}

// TestIterationCountsGolden pins every iteration's work counters to
// goldenRuns for every method and worker count: the pass must fire the
// same rules, keep the same distinct candidates, and prune the same
// ones.
func TestIterationCountsGolden(t *testing.T) {
	graphs := goldenGraphs(t)
	for _, gc := range goldenRuns {
		for _, workers := range []int{1, 2, 3, 8} {
			_, st, err := Build(graphs[gc.graph], Options{Method: gc.method, DisablePruning: gc.noPrune, Parallelism: workers, CollectStats: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(st.PerIteration) != len(gc.iters) {
				t.Fatalf("%s %v noPrune=%v workers=%d: %d iterations, golden %d", gc.graph, gc.method, gc.noPrune, workers, len(st.PerIteration), len(gc.iters))
			}
			for i, it := range st.PerIteration {
				got := iterCounts{it.Raw, it.Candidates, it.Pruned, it.Survivors}
				if got != gc.iters[i] {
					t.Errorf("%s %v noPrune=%v workers=%d iteration %d: {raw cands pruned survivors} = %v, golden %v",
						gc.graph, gc.method, gc.noPrune, workers, it.Iteration, got, gc.iters[i])
				}
			}
		}
	}
}

// TestCandidateBudget: MaxCandidates compares each iteration's distinct
// candidate count, whose peak on this graph is 1,628 (golden above).
func TestCandidateBudget(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawParams{N: 1000, Density: 2, Alpha: 2.5, Directed: true, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		if _, _, err := Build(g, Options{MaxCandidates: 1627, Parallelism: workers}); !errors.Is(err, ErrCandidateBudget) {
			t.Errorf("workers=%d: budget 1627 returned %v, want ErrCandidateBudget", workers, err)
		}
		if _, _, err := Build(g, Options{MaxCandidates: 1628, Parallelism: workers}); err != nil {
			t.Errorf("workers=%d: budget 1628: %v", workers, err)
		}
	}
}

// TestBuildAllocBounded bounds the build's garbage: everything
// BuildRanked allocates on a 5k-vertex GLP graph, labels included, must
// stay within 32x the final label bytes. The sort-based builder this
// replaced allocated 84x; a candidate list that is materialised again
// blows this bound. It is a count, so one run decides.
func TestBuildAllocBounded(t *testing.T) {
	g0, err := gen.GLP(gen.DefaultGLP(5000, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := order.Apply(g0, order.ByDegree)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	x, _, err := BuildRanked(g, Options{Parallelism: 2})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	if ratio := float64(alloc) / float64(x.SizeBytes()); ratio > 32 {
		t.Errorf("build allocated %d bytes, %.1fx the %d label bytes (bound 32x)", alloc, ratio, x.SizeBytes())
	}
}
