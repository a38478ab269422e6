package main

import (
	"os"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

// readmeTable returns the back-quoted first-column names of the table
// rows under the README heading that starts with heading, sorted.
func readmeTable(t *testing.T, readme, heading string) []string {
	t.Helper()
	i := strings.Index(readme, "\n"+heading)
	if i < 0 {
		t.Fatalf("README.md has no heading %q", heading)
	}
	section := readme[i+1:]
	if j := strings.Index(section[1:], "\n## "); j >= 0 {
		section = section[:j+1]
	}
	row := regexp.MustCompile("(?m)^\\| `([^`]+)` \\|")
	var out []string
	for _, m := range row.FindAllStringSubmatch(section, -1) {
		out = append(out, m[1])
	}
	sort.Strings(out)
	return out
}

// The names the program emits, the names BENCHMARK.json promises the
// driver and the names README.md documents are the same sets, and every
// one is a legal name with a legal unit.
func TestCatalogueBenchmarkJSONAndREADMEAgree(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)

	var wlCode, wlSpec []string
	for _, w := range workloads {
		wlCode = append(wlCode, w.Name)
		if !slices.Contains(names(endToEnd), w.Primary) {
			t.Errorf("workload %s: primary metric %q is not an end-to-end metric", w.Name, w.Primary)
		}
	}
	for _, w := range spec.Workloads {
		wlSpec = append(wlSpec, w.Name)
		if strings.ContainsAny(w.Why, "\n\r") || len(w.Why) > 200 || w.Why == "" {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	sort.Strings(wlCode)
	sort.Strings(wlSpec)
	if !reflect.DeepEqual(wlCode, wlSpec) {
		t.Errorf("workloads differ:\n code %v\n BENCHMARK.json %v", wlCode, wlSpec)
	}
	if got := readmeTable(t, readme, "## Workloads"); !reflect.DeepEqual(got, wlCode) {
		t.Errorf("README workload table lists %v, code has %v", got, wlCode)
	}

	for _, tc := range []struct {
		what    string
		code    []metricDef
		spec    []specMetric
		heading string
	}{
		{"end-to-end", endToEnd, spec.EndToEnd, "## End-to-end metrics"},
		{"per-layer", perLayer, spec.PerLayer, "## Per-layer metrics"},
	} {
		seen := map[string]bool{}
		for _, d := range tc.code {
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
				t.Errorf("%s metric %q (unit %q) is not a legal name and unit", tc.what, d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s metric %s: better = %q", tc.what, d.Name, d.Better)
			}
			if seen[d.Name] {
				t.Errorf("%s metric %s is listed twice", tc.what, d.Name)
			}
			seen[d.Name] = true
		}
		fromSpec := map[string]specMetric{}
		for _, m := range tc.spec {
			fromSpec[m.Name] = m
		}
		for _, d := range tc.code {
			m, ok := fromSpec[d.Name]
			if !ok {
				t.Errorf("%s metric %s is missing from BENCHMARK.json", tc.what, d.Name)
				continue
			}
			if m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
				t.Errorf("%s metric %s: BENCHMARK.json says %+v, code says %+v", tc.what, d.Name, m, d)
			}
		}
		if len(fromSpec) != len(tc.code) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, code %d", len(fromSpec), tc.what, len(tc.code))
		}
		if got, want := readmeTable(t, readme, tc.heading), names(tc.code); !reflect.DeepEqual(got, want) {
			t.Errorf("README %s table and code differ:\n README only: %v\n code only:   %v", tc.what, minus(got, want), minus(want, got))
		}
	}

	var setup *specMetric
	for i, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = &spec.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Error("BENCHMARK.json must carry setup_s in seconds, lower is better")
	}
	if len(spec.PerLayer) > 128 || len(spec.EndToEnd) > 16 || len(spec.Workloads) < 2 || len(spec.Workloads) > 8 {
		t.Errorf("BENCHMARK.json list sizes out of contract: %d per-layer, %d end-to-end, %d workloads", len(spec.PerLayer), len(spec.EndToEnd), len(spec.Workloads))
	}
	if !reflect.DeepEqual(spec.Paths, []string{"benchmark"}) || len(spec.Command) == 0 {
		t.Errorf("BENCHMARK.json paths/command = %v / %v", spec.Paths, spec.Command)
	}
}

// minus returns the members of a that b lacks.
func minus(a, b []string) []string {
	var out []string
	for _, v := range a {
		if !slices.Contains(b, v) {
			out = append(out, v)
		}
	}
	return out
}
