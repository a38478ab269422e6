package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100.5, 99.5}
	for _, tc := range []struct {
		name   string
		base   []float64
		cand   []float64
		better string
		bound  float64
		want   string
	}{
		{"same", steady, steady, "lower", 0.10, verdictWithin},
		{"small rise within bound", steady, []float64{104, 105, 103, 104.5, 103.5}, "lower", 0.10, verdictWithin},
		{"rise past the bound", steady, []float64{115, 116, 114, 115.5, 114.5}, "lower", 0.10, verdictWorse},
		{"rise is good when higher is better", steady, []float64{115, 116, 114, 115.5, 114.5}, "higher", 0.10, verdictBetter},
		{"drop past the bound when higher is better", steady, []float64{85, 86, 84, 85.5, 84.5}, "higher", 0.10, verdictWorse},
		{"drop beyond the spread", steady, []float64{90, 91, 89, 90.5, 89.5}, "lower", 0.10, verdictBetter},
		{"drop inside the spread", steady, []float64{99.6, 100.4, 98.7, 100.1, 99.2}, "lower", 0.10, verdictWithin},
		{"spread wider than the bound", []float64{100, 140, 80, 120, 90}, []float64{150, 151, 149, 150, 150}, "lower", 0.10, verdictUnresolved},
		{"nothing to compare", nil, steady, "lower", 0.10, verdictMissing},
		{"single runs", []float64{100}, []float64{120}, "lower", 0.10, verdictWorse},
	} {
		if got, _, _ := judge(tc.base, tc.cand, tc.better, tc.bound); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func run(workload string, seed int64, metrics map[string]float64) resultFile {
	r := resultFile{Workload: workload, Seed: seed}
	r.Correct, r.Attempted = true, 10
	r.Metrics = map[string]metricValue{}
	for k, v := range metrics {
		r.Metrics[k] = metricValue{Value: v}
	}
	return r
}

func TestCompareRunsRowsAndExitCode(t *testing.T) {
	spec := &benchmarkSpec{
		Workloads: []specWorkload{{Name: "table6-glp"}},
		EndToEnd: []specMetric{
			{Name: "query_ns", Unit: "ns", Better: "lower", Bound: 0.10},
			{Name: "get_rps", Unit: "req/s", Better: "higher", Bound: 0.10},
		},
	}
	base := []resultFile{
		run("table6-glp", 1, map[string]float64{"query_ns": 400, "get_rps": 1000}),
		run("table6-glp", 2, map[string]float64{"query_ns": 404, "get_rps": 1010}),
		run("table6-glp", 3, map[string]float64{"query_ns": 396, "get_rps": 990}),
	}
	slower := []resultFile{
		run("table6-glp", 1, map[string]float64{"query_ns": 480, "get_rps": 1000}),
		run("table6-glp", 2, map[string]float64{"query_ns": 484, "get_rps": 1005}),
		run("table6-glp", 3, map[string]float64{"query_ns": 476, "get_rps": 995}),
	}
	var out bytes.Buffer
	if code := compareRuns(&out, spec, base, slower); code != 1 {
		t.Errorf("a 20%% slower query_ns exited %d, want 1", code)
	}
	text := out.String()
	for _, want := range []string{"table6-glp", "query_ns", verdictWorse, "get_rps", verdictWithin} {
		if !strings.Contains(text, want) {
			t.Errorf("comparison output lacks %q:\n%s", want, text)
		}
	}
	out.Reset()
	if code := compareRuns(&out, spec, base, base); code != 0 {
		t.Errorf("comparing a set with itself exited %d, want 0:\n%s", code, out.String())
	}
	// A traced run's metrics never enter an end-to-end row.
	traced := run("table6-glp", 4, map[string]float64{"query_ns": 9999})
	traced.Trace = true
	out.Reset()
	if code := compareRuns(&out, spec, base, append([]resultFile{traced}, base...)); code != 0 {
		t.Errorf("a traced run moved an end-to-end row:\n%s", out.String())
	}
	// A run with failed operations fails the comparison whatever it measured.
	broken := run("table6-glp", 5, map[string]float64{"query_ns": 400, "get_rps": 1000})
	broken.Failed = 3
	out.Reset()
	if code := compareRuns(&out, spec, base, []resultFile{broken}); code != 1 {
		t.Errorf("a run with failed operations exited %d, want 1", code)
	}
}
