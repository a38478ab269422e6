// Benchmarks regenerating the paper's evaluation (Section 8). Each
// BenchmarkTable*/BenchmarkFigure* target corresponds to one table or
// figure; run with
//
//	go test -bench=. -benchmem
//
// for the quick suite, or use cmd/hopdb-bench for the full 27-dataset
// sweep with the paper-formatted output. Benchmarks report the paper's
// headline metrics (index entries, avg label size, iterations, queries
// per second) through testing.B metrics. They reproduce the paper; how
// fast hopdb itself builds, loads and answers is measured by the one
// harness under benchmark/ (bash benchmark/run.sh), whose metric names
// the README's "Benchmarks" section maps the former micro-benchmarks to.
package hopdb

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/diskidx"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/islabel"
	"repro/internal/order"
	"repro/internal/pll"
	"repro/internal/sp"
)

// benchScale keeps `go test -bench` fast; cmd/hopdb-bench runs full size.
const benchScale = 0.5

func mustDataset(b *testing.B, name string) *graph.Graph {
	b.Helper()
	d, ok := bench.DatasetByName(name)
	if !ok {
		b.Fatalf("unknown dataset %s", name)
	}
	g, err := d.Build(benchScale)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func randPairs(n int32, q int, seed int64) [][2]int32 {
	rng := rand.New(rand.NewSource(seed))
	pairs := make([][2]int32, q)
	for i := range pairs {
		pairs[i] = [2]int32{rng.Int31n(n), rng.Int31n(n)}
	}
	return pairs
}

// --- Table 6: indexing time and size per system ------------------------

// BenchmarkTable6IndexingHopDb measures the paper's HopDb disk-based
// build (hybrid schedule, external algorithm).
func BenchmarkTable6IndexingHopDb(b *testing.B) {
	for _, name := range []string{"enron", "slashdot", "syn6", "bookRating"} {
		g := mustDataset(b, name)
		b.Run(name, func(b *testing.B) {
			tmp := b.TempDir()
			var entries int64
			for i := 0; i < b.N; i++ {
				x, st, err := core.BuildExternal(g, core.Options{Method: core.Hybrid, TempDir: tmp})
				if err != nil {
					b.Fatal(err)
				}
				entries = st.Entries
				_ = x
			}
			b.ReportMetric(float64(entries), "entries")
		})
	}
}

// BenchmarkTable6IndexingPLL measures the PLL baseline build.
func BenchmarkTable6IndexingPLL(b *testing.B) {
	for _, name := range []string{"enron", "slashdot", "syn6", "bookRating"} {
		g := mustDataset(b, name)
		b.Run(name, func(b *testing.B) {
			var entries int64
			for i := 0; i < b.N; i++ {
				x, _, err := pll.Build(g, 0, false)
				if err != nil {
					b.Fatal(err)
				}
				entries = x.Entries()
			}
			b.ReportMetric(float64(entries), "entries")
		})
	}
}

// BenchmarkTable6IndexingISLabel measures the IS-Label baseline build
// (with a generous growth budget so the small proxies finish).
func BenchmarkTable6IndexingISLabel(b *testing.B) {
	for _, name := range []string{"enron", "bookRating"} {
		g := mustDataset(b, name)
		b.Run(name, func(b *testing.B) {
			var entries int64
			for i := 0; i < b.N; i++ {
				x, _, err := islabel.Build(g, islabel.Options{MaxEdgeFactor: 64})
				if err != nil {
					b.Skipf("IS-Label DNF (paper behaviour): %v", err)
				}
				entries = x.Entries()
			}
			b.ReportMetric(float64(entries), "entries")
		})
	}
}

// BenchmarkTable6QueryMemory measures memory-resident query latency for
// BIDIJ, PLL, and HopDb on one representative dataset per group.
func BenchmarkTable6QueryMemory(b *testing.B) {
	for _, name := range []string{"enron", "slashdot", "syn6", "bookRating"} {
		g := mustDataset(b, name)
		pairs := randPairs(g.N(), 1024, 99)
		hop, _, err := core.Build(g, core.Options{Method: core.Hybrid})
		if err != nil {
			b.Fatal(err)
		}
		pllIdx, _, err := pll.Build(g, 0, false)
		if err != nil {
			b.Fatal(err)
		}
		bi := sp.NewBiSearcher(g)
		b.Run(name+"/bidij", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				bi.Distance(p[0], p[1])
			}
		})
		b.Run(name+"/pll", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				pllIdx.Distance(p[0], p[1])
			}
		})
		b.Run(name+"/hopdb", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				hop.Distance(p[0], p[1])
			}
		})
	}
}

// BenchmarkTable6QueryDisk measures disk-resident query latency and
// block I/Os per query for HopDb.
func BenchmarkTable6QueryDisk(b *testing.B) {
	g := mustDataset(b, "enron")
	hop, _, err := core.Build(g, core.Options{Method: core.Hybrid})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.idx")
	if err := diskidx.Write(path, hop); err != nil {
		b.Fatal(err)
	}
	dx, err := diskidx.Open(path, diskidx.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer dx.Close()
	pairs := randPairs(g.N(), 1024, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if _, err := dx.Distance(p[0], p[1]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(dx.IOs())/float64(b.N), "IOs/query")
}

// --- Table 7: label size and hitting-set coverage ----------------------

// BenchmarkTable7 builds each small-suite dataset and reports the
// paper's Table 7 metrics as benchmark outputs.
func BenchmarkTable7(b *testing.B) {
	for _, d := range bench.SmallSuite() {
		b.Run(d.Name, func(b *testing.B) {
			var row bench.Table7Row
			for i := 0; i < b.N; i++ {
				var err error
				row, err = bench.RunTable7Dataset(d, benchScale)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(row.AvgLabel, "avg-label")
			b.ReportMetric(float64(row.Iterations), "iterations")
			b.ReportMetric(row.Top90*100, "top90-pct")
		})
	}
}

// --- Table 8: construction schedules ------------------------------------

// BenchmarkTable8 compares Doubling, Stepping, and Hybrid build times.
func BenchmarkTable8(b *testing.B) {
	g := mustDataset(b, "slashdot")
	for _, m := range []core.Method{core.Doubling, core.Stepping, core.Hybrid} {
		b.Run(m.String(), func(b *testing.B) {
			var iters int
			for i := 0; i < b.N; i++ {
				_, st, err := core.Build(g, core.Options{Method: m})
				if err != nil {
					b.Fatal(err)
				}
				iters = st.Iterations
			}
			b.ReportMetric(float64(iters), "iterations")
		})
	}
}

// --- Figure 8: coverage curves ------------------------------------------

// BenchmarkFigure8 computes the coverage curve for one dataset.
func BenchmarkFigure8(b *testing.B) {
	d, _ := bench.DatasetByName("skitter")
	var series []bench.Figure8Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = bench.RunFigure8([]bench.Dataset{d}, benchScale, 11, 0.01)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(series) > 0 {
		last := series[0].Coverage[len(series[0].Coverage)-1]
		b.ReportMetric(last*100, "top1pct-coverage")
	}
}

// --- Figure 9: synthetic scalability ------------------------------------

// BenchmarkFigure9Density sweeps density at fixed |V| (Figure 9a).
func BenchmarkFigure9Density(b *testing.B) {
	for _, den := range []float64{2, 10, 20} {
		b.Run(fmt.Sprintf("density-%v", den), func(b *testing.B) {
			var avg float64
			for i := 0; i < b.N; i++ {
				pts, err := bench.RunFigure9Density(int32(4000*benchScale), []float64{den}, 91)
				if err != nil {
					b.Fatal(err)
				}
				avg = pts[0].AvgLabel
			}
			b.ReportMetric(avg, "avg-label")
		})
	}
}

// BenchmarkFigure9Vertices sweeps |V| at fixed density (Figure 9b).
func BenchmarkFigure9Vertices(b *testing.B) {
	for _, n := range []int32{1000, 2000, 4000} {
		b.Run(fmt.Sprintf("V-%d", n), func(b *testing.B) {
			var avg float64
			for i := 0; i < b.N; i++ {
				pts, err := bench.RunFigure9Vertices([]int32{int32(float64(n) * benchScale)}, 10, 92)
				if err != nil {
					b.Fatal(err)
				}
				avg = pts[0].AvgLabel
			}
			b.ReportMetric(avg, "avg-label")
		})
	}
}

// --- Figure 10: growth and pruning --------------------------------------

// BenchmarkFigure10 traces the per-iteration growing and pruning factors
// on the wikiEng proxy.
func BenchmarkFigure10(b *testing.B) {
	d, _ := bench.DatasetByName("wikiEng")
	var rows []bench.Figure10Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.RunFigure10(d, benchScale, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) > 0 {
		var maxPrune float64
		for _, r := range rows {
			if r.PruningFactor > maxPrune {
				maxPrune = r.PruningFactor
			}
		}
		b.ReportMetric(maxPrune*100, "max-prune-pct")
		b.ReportMetric(float64(len(rows)), "iterations")
	}
}

// --- Ablations (the paper's design choices) ------------------------------

// BenchmarkAblationPruning contrasts builds with and without the pruning
// step (Section 3.3): the design choice the paper credits for the small
// label sizes.
func BenchmarkAblationPruning(b *testing.B) {
	g := mustDataset(b, "syn6")
	for _, disable := range []bool{false, true} {
		name := "pruning-on"
		if disable {
			name = "pruning-off"
		}
		b.Run(name, func(b *testing.B) {
			var entries int64
			for i := 0; i < b.N; i++ {
				x, _, err := core.Build(g, core.Options{Method: core.Hybrid, DisablePruning: disable})
				if err != nil {
					b.Fatal(err)
				}
				entries = x.Entries()
			}
			b.ReportMetric(float64(entries), "entries")
		})
	}
}

// BenchmarkAblationRanking contrasts the paper's degree ranking against
// an arbitrary (id) ranking, quantifying Section 2.1's claim that the
// ordering drives label size.
func BenchmarkAblationRanking(b *testing.B) {
	g := mustDataset(b, "enron")
	type cfg struct {
		name string
		opt  core.Options
	}
	for _, c := range []cfg{
		{"degree", core.Options{Method: core.Hybrid}},
		{"arbitrary", core.Options{Method: core.Hybrid, Rank: order.ByID, RankSet: true}},
	} {
		b.Run(c.name, func(b *testing.B) {
			var entries int64
			for i := 0; i < b.N; i++ {
				x, _, err := core.Build(g, c.opt)
				if err != nil {
					b.Fatal(err)
				}
				entries = x.Entries()
			}
			b.ReportMetric(float64(entries), "entries")
		})
	}
}

// BenchmarkGenerators measures synthetic graph generation throughput.
func BenchmarkGenerators(b *testing.B) {
	b.Run("glp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := gen.GLP(gen.DefaultGLP(2000, 5, int64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("powerlaw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := gen.PowerLaw(gen.PowerLawParams{N: 2000, Density: 5, Alpha: 2.2, Directed: true, Seed: int64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestMain keeps the benchmark temp space tidy when run via go test.
func TestMain(m *testing.M) {
	os.Exit(m.Run())
}
