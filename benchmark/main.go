// Command benchmark is the repository's one performance harness: five
// workloads, fourteen end-to-end metrics, and a per-layer trace.
//
// Every workload runs the same lifecycle — build, save, open, point
// queries, closed-loop GET and batch serving, online updates — on its own
// graph, traffic shape and serving topology, and reports every metric;
// the workloads differ in where their measuring time goes and in which
// layers do the work. An untraced run (--trace 0) prints the end-to-end
// metrics and contains no tracing wrapper; a traced run (--trace 1)
// decomposes each phase into calls on the individual layers, records a
// span around each from the benchmark's side, and prints the per-layer
// metrics. See README.md for the catalogue and BENCHMARK.json for the
// contract the driver checks.
//
//	go run . --workload serve-zipf --seed 1 --seconds 12 --trace 0
//	go run . -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output: exactly the keys the
// benchmark contract names.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultFile is what a run leaves on disk for -compare: the result line
// plus the environment and the notes that explain the numbers.
type resultFile struct {
	resultLine
	Workload    string         `json:"workload"`
	Seed        int64          `json:"seed"`
	Seconds     float64        `json:"seconds"`
	Trace       bool           `json:"trace"`
	WallS       float64        `json:"wall_s"`
	Environment environment    `json:"environment"`
	Notes       map[string]any `json:"notes,omitempty"`
	Failures    []string       `json:"failures,omitempty"`
}

func main() {
	os.Exit(mainExit())
}

func mainExit() int {
	var (
		name    = flag.String("workload", "", "workload to run (see README.md)")
		seed    = flag.Int64("seed", 1, "seed of every generated input stream")
		seconds = flag.Float64("seconds", 12, "seconds of timed load, split among the phases by the workload's shares")
		trace   = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics; 0 = untraced run printing the end-to-end metrics")
		scratch = flag.String("scratch", ".bench_build", "directory for index files, span files and result files")
		compare = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		spec    = flag.String("spec", "BENCHMARK.json", "benchmark definition -compare reads directions and bounds from")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return compareFiles(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: benchmark --workload <name> [--seed n] [--seconds s] [--trace 0|1]")
		fmt.Fprint(os.Stderr, "workloads:")
		for _, w := range workloads {
			fmt.Fprint(os.Stderr, " ", w.Name)
		}
		fmt.Fprintln(os.Stderr)
		return 2
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*scratch, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	cfg := runConfig{Workload: w, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Scale: 1, Dir: dir}
	start := time.Now()
	res, err := runWorkload(cfg, *scratch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	res.WallS = time.Since(start).Seconds()
	if err := report(os.Stdout, res, *scratch); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs cfg and assembles the result. A traced run also
// writes its span file under scratch.
func runWorkload(cfg runConfig, scratch string) (*resultFile, error) {
	lc, err := newLifecycle(cfg)
	if err != nil {
		return nil, err
	}
	catalogue := endToEnd
	if cfg.Trace {
		catalogue = perLayer
		tr := newTracer()
		if err := lc.runTraced(tr); err != nil {
			return nil, err
		}
		path := filepath.Join(scratch, fmt.Sprintf("spans-%s-seed%d.json", cfg.Workload.Name, cfg.Seed))
		if err := tr.write(path, cfg.Workload.Name, cfg.Seed); err != nil {
			return nil, fmt.Errorf("writing span file: %w", err)
		}
		lc.notes["span_file"] = path
		lc.checkSpans(tr.snapshot())
	} else if err := lc.runEndToEnd(); err != nil {
		return nil, err
	}
	res := &resultFile{
		Workload:    cfg.Workload.Name,
		Seed:        cfg.Seed,
		Seconds:     cfg.Seconds,
		Trace:       cfg.Trace,
		Environment: readEnvironment(),
		Notes:       lc.notes,
		Failures:    lc.chk.failures(),
	}
	res.Attempted = lc.chk.attempted.Load()
	res.Failed = lc.chk.failed.Load()
	res.Correct = res.Failed == 0 && res.Attempted > 0
	res.Metrics = make(map[string]metricValue, len(catalogue))
	for _, def := range catalogue {
		v, ok := lc.metrics[def.Name]
		if !ok && !cfg.Trace {
			return nil, fmt.Errorf("internal: end-to-end metric %s was not measured", def.Name)
		}
		// A per-layer metric a workload does not drive (the shard tier
		// on a single-node topology) reads 0.
		res.Metrics[def.Name] = metricValue{Value: v, Unit: def.Unit}
	}
	for name := range lc.metrics {
		if _, ok := res.Metrics[name]; !ok {
			return nil, fmt.Errorf("internal: metric %s is measured but not in the catalogue", name)
		}
	}
	return res, nil
}

// report prints the run for people, stores the result file, and ends
// with the one-line JSON object the driver reads.
func report(out *os.File, res *resultFile, scratch string) error {
	fmt.Fprintf(out, "workload %s seed %d seconds %g trace %v wall %.1fs\n", res.Workload, res.Seed, res.Seconds, res.Trace, res.WallS)
	env := res.Environment
	fmt.Fprintf(out, "environment: nproc=%d GOMAXPROCS=%d %s %s/%s cpu=%q tags=%q commit=%s\n",
		env.NumCPU, env.GOMAXPROCS, env.GoVersion, env.GOOS, env.GOARCH, env.CPUModel, env.BuildTags, env.GitCommit)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(out, "  %-34s %16.6g %s\n", name, m.Value, m.Unit)
	}
	if notes, err := json.Marshal(res.Notes); err == nil {
		fmt.Fprintf(out, "notes: %s\n", notes)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(out, "FAILED: %s\n", f)
	}
	fmt.Fprintf(out, "operations: %d attempted, %d failed\n", res.Attempted, res.Failed)

	dir := filepath.Join(scratch, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	traced := 0
	if res.Trace {
		traced = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", res.Workload, res.Seed, traced))
	full, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(full, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "result file: %s\n", path)

	line, err := json.Marshal(res.resultLine)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
