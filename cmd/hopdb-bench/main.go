// Command hopdb-bench regenerates the paper's evaluation: every table and
// figure of Section 8 over the synthetic proxy datasets (the package
// comment of internal/bench gives the substitution rationale).
// Performance claims about hopdb itself come from the one harness under
// benchmark/ (bash benchmark/run.sh), not from this command.
//
// Usage:
//
//	hopdb-bench all                # everything, paper order
//	hopdb-bench table6 [-scale 1] [-queries 500]
//	hopdb-bench table7
//	hopdb-bench table8
//	hopdb-bench fig8
//	hopdb-bench fig9
//	hopdb-bench fig10
//	hopdb-bench assumptions
//	hopdb-bench -datasets enron,syn6 table6
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	var (
		scale    = flag.Float64("scale", 1, "dataset size multiplier")
		queries  = flag.Int("queries", 500, "queries per dataset (table6)")
		datasets = flag.String("datasets", "", "comma-separated dataset subset (default: all 27)")
		verbose  = flag.Bool("v", false, "stream progress")
		tempDir  = flag.String("tmp", "", "temp dir for external builds")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		usage()
	}
	what := flag.Arg(0)

	ds := bench.Datasets()
	if *datasets != "" {
		var sel []bench.Dataset
		for _, name := range strings.Split(*datasets, ",") {
			d, ok := bench.DatasetByName(strings.TrimSpace(name))
			if !ok {
				fail(fmt.Errorf("unknown dataset %q", name))
			}
			sel = append(sel, d)
		}
		ds = sel
	}
	progress := func(string) {}
	if *verbose {
		progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}

	run := func(section string) {
		switch section {
		case "table6":
			rows, err := bench.RunTable6(ds, bench.Table6Options{
				Scale: *scale, Queries: *queries, TempDir: *tempDir, Progress: progress,
			})
			if err != nil {
				fail(err)
			}
			bench.PrintTable6(os.Stdout, rows)
		case "table7":
			rows, err := bench.RunTable7(ds, *scale)
			if err != nil {
				fail(err)
			}
			bench.PrintTable7(os.Stdout, rows)
		case "table8":
			rows, err := bench.RunTable8(ds, bench.Table8Options{Scale: *scale})
			if err != nil {
				fail(err)
			}
			bench.PrintTable8(os.Stdout, rows)
		case "fig8":
			// The paper plots BTC/Skitter, wikiEng/wikiTalk/EuAll, and
			// syn1/syn2/syn5; reuse that selection from the registry.
			sel := pick("btc", "skitter", "wikiEng", "wikiTalk", "euAll", "syn1", "syn2", "syn5")
			series, err := bench.RunFigure8(sel, *scale, 11, 0.01)
			if err != nil {
				fail(err)
			}
			bench.PrintFigure8(os.Stdout, series)
		case "fig9":
			// Scaled-down counterparts of the paper's 10M-vertex sweep.
			a, err := bench.RunFigure9Density(int32(20000**scale), []float64{2, 5, 10, 20, 35}, 91)
			if err != nil {
				fail(err)
			}
			bench.PrintFigure9(os.Stdout, "Figure 9(a): fixed |V|, growing density", a)
			b, err := bench.RunFigure9Vertices(scaleNs([]int32{5000, 10000, 20000, 40000, 80000}, *scale), 10, 92)
			if err != nil {
				fail(err)
			}
			bench.PrintFigure9(os.Stdout, "Figure 9(b): fixed density, growing |V|", b)
		case "assumptions":
			rows, err := bench.RunAssumptions(ds, *scale)
			if err != nil {
				fail(err)
			}
			bench.PrintAssumptions(os.Stdout, rows)
		case "fig10":
			d, _ := bench.DatasetByName("wikiEng")
			rows, err := bench.RunFigure10(d, *scale, 0)
			if err != nil {
				fail(err)
			}
			bench.PrintFigure10(os.Stdout, d.Name+" (switch=10, paper default)", rows)
			rows, err = bench.RunFigure10(d, *scale, 4)
			if err != nil {
				fail(err)
			}
			bench.PrintFigure10(os.Stdout, d.Name+" (switch=4, exposing the doubling phase)", rows)
		default:
			usage()
		}
	}
	if what == "all" {
		for _, s := range []string{"table6", "table7", "table8", "fig8", "fig9", "fig10", "assumptions"} {
			run(s)
			fmt.Println()
		}
		return
	}
	run(what)
}

func pick(names ...string) []bench.Dataset {
	var out []bench.Dataset
	for _, n := range names {
		if d, ok := bench.DatasetByName(n); ok {
			out = append(out, d)
		}
	}
	return out
}

func scaleNs(ns []int32, scale float64) []int32 {
	out := make([]int32, len(ns))
	for i, n := range ns {
		out[i] = int32(float64(n) * scale)
		if out[i] < 64 {
			out[i] = 64
		}
	}
	return out
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: hopdb-bench [flags] all|table6|table7|table8|fig8|fig9|fig10|assumptions")
	flag.PrintDefaults()
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hopdb-bench:", err)
	os.Exit(1)
}
