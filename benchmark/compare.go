package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkSpec is BENCHMARK.json: the contract the driver checks and
// the source of every metric's direction and bound.
type benchmarkSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchmarkSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// loadRuns reads a set of runs: a result file, a file holding a JSON
// array of results, or a directory of result files.
func loadRuns(path string) ([]resultFile, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if st.IsDir() {
		names, err := filepath.Glob(filepath.Join(path, "*.json"))
		if err != nil {
			return nil, err
		}
		sort.Strings(names)
		var runs []resultFile
		for _, name := range names {
			more, err := loadRuns(name)
			if err != nil {
				return nil, err
			}
			runs = append(runs, more...)
		}
		return runs, nil
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if strings.HasPrefix(strings.TrimSpace(string(raw)), "[") {
		var runs []resultFile
		if err := json.Unmarshal(raw, &runs); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return runs, nil
	}
	var run resultFile
	if err := json.Unmarshal(raw, &run); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return []resultFile{run}, nil
}

// Verdicts of one workload x metric row.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictWithin     = "within-bound"
	verdictUnresolved = "unresolved"
	verdictMissing    = "missing"
)

// judge compares the candidate's values of one metric with the
// baseline's. worsening is the candidate median's move in the bad
// direction as a share of the baseline median; spread is the wider of
// the two sides' quartile spreads. Where the run-to-run spread is wider
// than the bound the row is unresolved, not unchanged.
func judge(base, cand []float64, better string, bound float64) (verdict string, worsening, spread float64) {
	if len(base) == 0 || len(cand) == 0 {
		return verdictMissing, 0, 0
	}
	a, b := median(base), median(cand)
	if a != 0 {
		worsening = (b - a) / a
	}
	if better == "higher" {
		worsening = -worsening
	}
	spread = max(quartileSpread(base), quartileSpread(cand))
	switch {
	case spread > bound:
		return verdictUnresolved, worsening, spread
	case worsening > bound:
		return verdictWorse, worsening, spread
	case worsening < 0 && -worsening > spread:
		return verdictBetter, worsening, spread
	}
	return verdictWithin, worsening, spread
}

// compareFiles prints one row per workload x end-to-end metric for the
// runs at basePath and candPath and returns the exit code: 1 when any
// row is worse (or a side cannot be read), else 0.
func compareFiles(w io.Writer, specPath, basePath, candPath string) int {
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	base, err := loadRuns(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	cand, err := loadRuns(candPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return compareRuns(w, spec, base, cand)
}

// values collects one metric's values over the untraced runs of one
// workload.
func values(runs []resultFile, workload, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if r.Workload != workload || r.Trace {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func compareRuns(w io.Writer, spec *benchmarkSpec, base, cand []resultFile) int {
	exit := 0
	fmt.Fprintf(w, "%-16s %-18s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "base", "candidate", "change", "spread", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, def := range spec.EndToEnd {
			a, b := values(base, wl.Name, def.Name), values(cand, wl.Name, def.Name)
			verdict, worsening, spread := judge(a, b, def.Better, def.Bound)
			if verdict == verdictMissing {
				continue
			}
			if verdict == verdictWorse {
				exit = 1
			}
			// change is signed in the metric's own direction of travel:
			// positive means the value went up.
			change := worsening
			if def.Better == "higher" {
				change = -change
			}
			fmt.Fprintf(w, "%-16s %-18s %14.6g %14.6g %+8.1f%% %7.1f%% %6.0f%%  %s\n",
				wl.Name, def.Name, median(a), median(b), change*100, spread*100, def.Bound*100, verdict)
		}
	}
	for _, r := range append(append([]resultFile(nil), base...), cand...) {
		if r.Failed > 0 {
			fmt.Fprintf(w, "run %s seed %d had %d failed operations\n", r.Workload, r.Seed, r.Failed)
			exit = 1
		}
	}
	return exit
}
