package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/extio"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/order"
)

// extOptions returns external-memory settings small enough to force real
// block and memory pressure at test scale.
func extOptions(t *testing.T, base Options) Options {
	t.Helper()
	base.TempDir = t.TempDir()
	base.BlockSize = 16
	base.MemoryBudget = 256
	return base
}

// TestExternalEquivalence is the central external-builder test: for every
// method, direction, and weight mode, the external builder must produce
// exactly the same label sets as the in-memory builder.
func TestExternalEquivalence(t *testing.T) {
	type shape struct {
		directed bool
		weighted bool
	}
	shapes := []shape{{false, false}, {true, false}, {false, true}, {true, true}}
	for _, sh := range shapes {
		for seed := int64(1); seed <= 3; seed++ {
			g0, err := gen.ER(50, 140, sh.directed, seed)
			if err != nil {
				t.Fatal(err)
			}
			g := g0
			if sh.weighted {
				g, err = gen.WithRandomWeights(g0, 6, seed+40)
				if err != nil {
					t.Fatal(err)
				}
			}
			for _, m := range []Method{Hybrid, Doubling, Stepping} {
				opt := Options{Method: m, SwitchIteration: 3}
				mem, _, err := Build(g, opt)
				if err != nil {
					t.Fatal(err)
				}
				ext, st, err := BuildExternal(g, extOptions(t, opt))
				if err != nil {
					t.Fatalf("external %v: %v", m, err)
				}
				if !mem.Equal(ext) {
					t.Fatalf("directed=%v weighted=%v seed=%d method=%v: external labels differ from in-memory",
						sh.directed, sh.weighted, seed, m)
				}
				if st.ReadIOs == 0 || st.WriteIOs == 0 {
					t.Errorf("method %v: no I/O recorded (reads=%d writes=%d)", m, st.ReadIOs, st.WriteIOs)
				}
			}
		}
	}
}

// TestExternalEquivalenceScaleFree runs the equivalence check on a
// scale-free graph large enough to force multiple outer-loop batches and
// external sort runs.
func TestExternalEquivalenceScaleFree(t *testing.T) {
	g, err := gen.GLP(gen.DefaultGLP(600, 4, 17))
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Method: Hybrid}
	mem, memStats, err := Build(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	ext, extStats, err := BuildExternal(g, extOptions(t, opt))
	if err != nil {
		t.Fatal(err)
	}
	if !mem.Equal(ext) {
		t.Fatal("external labels differ from in-memory on scale-free graph")
	}
	if memStats.Iterations != extStats.Iterations {
		t.Errorf("iteration counts differ: %d vs %d", memStats.Iterations, extStats.Iterations)
	}
	if memStats.TotalCandidates != extStats.TotalCandidates {
		t.Errorf("candidate totals differ: %d vs %d", memStats.TotalCandidates, extStats.TotalCandidates)
	}
	if memStats.TotalPruned != extStats.TotalPruned {
		t.Errorf("pruned totals differ: %d vs %d", memStats.TotalPruned, extStats.TotalPruned)
	}
}

// TestExternalNoPruning checks the ablation path matches in-memory too.
func TestExternalNoPruning(t *testing.T) {
	g, err := gen.ER(30, 70, true, 5)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Method: Stepping, DisablePruning: true}
	mem, _, err := Build(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	ext, _, err := BuildExternal(g, extOptions(t, opt))
	if err != nil {
		t.Fatal(err)
	}
	if !mem.Equal(ext) {
		t.Fatal("no-pruning external differs from in-memory")
	}
}

// TestExternalDirectRanking exercises the Build path (degree ranking) and
// the paper Figure 3 example through the external builder.
func TestExternalPaperExample(t *testing.T) {
	g := gen.PaperFigure3()
	opt := Options{Method: Doubling, Rank: order.ByID, RankSet: true}
	mem, _, err := Build(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	ext, _, err := BuildExternal(g, extOptions(t, opt))
	if err != nil {
		t.Fatal(err)
	}
	if !mem.Equal(ext) {
		t.Fatal("external differs on the paper example")
	}
	if d := ext.Distance(7, 0); d != 2 {
		t.Errorf("dist(7,0) = %d, want 2", d)
	}
}

// TestExternalDegenerate: empty and edgeless graphs must not crash the
// file plumbing.
func TestExternalDegenerate(t *testing.T) {
	b := graph.NewBuilder(true, false)
	b.Grow(4)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	x, st, err := BuildExternal(g, extOptions(t, Options{Method: Hybrid}))
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 0 {
		t.Errorf("entries = %d", st.Entries)
	}
	if d := x.Distance(0, 3); d != graph.Infinity {
		t.Errorf("dist = %d", d)
	}
}

// TestExternalMaxIterations: caps apply to the external builder too.
func TestExternalMaxIterations(t *testing.T) {
	g, err := gen.GLP(gen.DefaultGLP(200, 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := BuildExternal(g, extOptions(t, Options{Method: Stepping, MaxIterations: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations != 2 {
		t.Errorf("iterations = %d, want 2", st.Iterations)
	}
}

// externalRaw overrides goldenRuns' rule-firing counts on the two runs
// where a stored pair's distance later improves. The pass's inverted
// lists keep the superseded entry and fire rules from it too, whose
// candidates the per-owner minimum then discards (see checkpoint.go);
// the external builder's pivot-keyed label file keeps one entry per
// pair, so it fires those rules once. Candidates, pruned and survivors
// are the same.
var externalRaw = map[string][]int64{
	"er doubling noPrune=false":    {1984, 9850, 145038, 433526, 88378, 1128},
	"powerlaw hybrid noPrune=true": {1504, 1615, 1802, 2119, 2148, 2143, 1974, 1716, 1493, 1066, 3900, 10296, 6907, 38},
}

// externalIOs pins the block transfers of one external run at
// extOptions' M = 256, B = 16: 108,665 reads and 17,170 writes before
// the sorts deduplicated their runs and merges.
var externalIOs = map[string][2]int64{
	"powerlaw hybrid noPrune=false": {107873, 16378},
}

// TestExternalIterStats runs the external builder over goldenRuns with
// extOptions' M = 256 records and B = 16, so every candidate sort spills
// many runs and merges them in two or more passes. Each iteration's
// counters must equal the golden ones and its label size the in-memory
// build's.
func TestExternalIterStats(t *testing.T) {
	graphs := goldenGraphs(t)
	for _, gc := range goldenRuns {
		name := fmt.Sprintf("%s %v noPrune=%v", gc.graph, gc.method, gc.noPrune)
		opt := Options{Method: gc.method, DisablePruning: gc.noPrune, CollectStats: true}
		_, mem, err := Build(graphs[gc.graph], opt)
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := BuildExternal(graphs[gc.graph], extOptions(t, opt))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(st.PerIteration) != len(gc.iters) {
			t.Fatalf("%s: %d iterations, golden %d", name, len(st.PerIteration), len(gc.iters))
		}
		var reads, writes int64
		for i, it := range st.PerIteration {
			want := gc.iters[i]
			if raw, ok := externalRaw[name]; ok {
				want.raw = raw[i]
			}
			if got := (iterCounts{it.Raw, it.Candidates, it.Pruned, it.Survivors}); got != want {
				t.Errorf("%s iteration %d: {raw cands pruned survivors} = %v, golden %v", name, it.Iteration, got, want)
			}
			if m := mem.PerIteration[i]; it.LabelSize != m.LabelSize {
				t.Errorf("%s iteration %d: label size %d, in-memory %d", name, it.Iteration, it.LabelSize, m.LabelSize)
			}
			if it.ReadIOs <= 0 || it.WriteIOs <= 0 {
				t.Errorf("%s iteration %d: reads=%d writes=%d, want both > 0", name, it.Iteration, it.ReadIOs, it.WriteIOs)
			}
			reads += it.ReadIOs
			writes += it.WriteIOs
		}
		// Initialization and the final index load lie outside the
		// iterations.
		if reads >= st.ReadIOs || writes >= st.WriteIOs {
			t.Errorf("%s: iterations account for %d/%d of %d/%d reads/writes", name, reads, writes, st.ReadIOs, st.WriteIOs)
		}
		if want, ok := externalIOs[name]; ok && (st.ReadIOs != want[0] || st.WriteIOs != want[1]) {
			t.Errorf("%s: reads=%d writes=%d, pinned %d/%d", name, st.ReadIOs, st.WriteIOs, want[0], want[1])
		}
	}
}

// truncate appends a partial record to the record file at path.
func truncate(t *testing.T, path string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestExternalPruneTruncatedInput feeds prune and dropNonImprovingExt a
// candidate or same-side label file whose tail is a partial record. The
// candidates' owner lies past every label owner, so both files are read
// to their tails; reading the cut-off file as complete would emit the
// candidate unpruned.
func TestExternalPruneTruncatedInput(t *testing.T) {
	for _, bad := range []string{"cand", "same"} {
		dir := t.TempDir()
		e := &extEngine{dir: dir, cfg: extio.Config{BlockRecords: 4, MemoryRecords: 16, Dir: dir}}
		files := map[string][]extio.Record{
			"cand":     {{K1: 9, K2: 1, V: 5}, {K1: 9, K2: 2, V: 5}},
			"same":     {{K1: 3, K2: 0, V: 1}, {K1: 4, K2: 0, V: 1}, {K1: 9, K2: 1, V: 2}},
			"opposite": {{K1: 1, K2: 0, V: 1}},
		}
		for name, recs := range files {
			if err := extio.WriteAll(filepath.Join(dir, name), e.cfg, recs); err != nil {
				t.Fatal(err)
			}
		}
		truncate(t, filepath.Join(dir, bad))
		p := func(name string) string { return filepath.Join(dir, name) }
		if _, err := e.prune(p("cand"), p("same"), p("opposite"), p("out")); err == nil {
			t.Errorf("prune accepted a truncated %s file", bad)
		}
		if _, err := e.dropNonImprovingExt(p("cand"), p("same"), p("out")); err == nil {
			t.Errorf("dropNonImprovingExt accepted a truncated %s file", bad)
		}
	}
}
