// Package analysistest runs hopdb-vet analyzers over golden fixture
// directories, mirroring golang.org/x/tools/go/analysis/analysistest:
// fixture files mark each expected diagnostic with a trailing
//
//	// want "regexp"
//
// comment on the offending line (several quoted patterns may follow one
// want). The harness loads the fixture against the real module's export
// data, runs the analyzers, and fails the test on any unexpected
// diagnostic or unmatched expectation. Expectations are collected from
// every .go file in the fixture directory.
package analysistest

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// wantRe matches the expectation comment and captures the quoted
// pattern list.
var wantRe = regexp.MustCompile(`//\s*want\s+(".*)$`)

// expectation is one // want entry awaiting a matching diagnostic.
type expectation struct {
	file    string // base name
	line    int
	pattern *regexp.Regexp
	matched bool
}

// Run loads fixtureDir (a directory of .go files forming one package),
// applies the analyzers, and compares the resulting diagnostics against
// the fixture's // want comments.
func Run(t *testing.T, fixtureDir string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	pkg, err := analysis.LoadDir(ModuleRoot(t), fixtureDir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixtureDir, err)
	}
	diags, err := analysis.Run([]*analysis.Package{pkg}, analyzers)
	if err != nil {
		t.Fatalf("running analyzers on %s: %v", fixtureDir, err)
	}
	wants := collectWants(t, fixtureDir)

	for _, d := range diags {
		if !claim(wants, filepath.Base(d.Pos.Filename), d.Pos.Line, d.Message) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched %q", w.file, w.line, w.pattern)
		}
	}
}

// claim marks the first unmatched expectation at file:line whose
// pattern matches message.
func claim(wants []*expectation, file string, line int, message string) bool {
	for _, w := range wants {
		if !w.matched && w.file == file && w.line == line && w.pattern.MatchString(message) {
			w.matched = true
			return true
		}
	}
	return false
}

// collectWants scans every fixture file for // want comments.
func collectWants(t *testing.T, fixtureDir string) []*expectation {
	t.Helper()
	entries, err := os.ReadDir(fixtureDir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var wants []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(fixtureDir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatalf("opening %s: %v", path, err)
		}
		scanner := bufio.NewScanner(f)
		for line := 1; scanner.Scan(); line++ {
			m := wantRe.FindStringSubmatch(scanner.Text())
			if m == nil {
				continue
			}
			for _, pat := range splitPatterns(t, path, line, m[1]) {
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", path, line, pat, err)
				}
				wants = append(wants, &expectation{file: e.Name(), line: line, pattern: re})
			}
		}
		if err := scanner.Err(); err != nil {
			t.Fatalf("scanning %s: %v", path, err)
		}
		f.Close()
	}
	return wants
}

// splitPatterns decodes the sequence of Go-quoted strings after want.
func splitPatterns(t *testing.T, path string, line int, s string) []string {
	t.Helper()
	var pats []string
	for {
		s = strings.TrimLeft(s, " \t")
		if s == "" {
			break
		}
		q, err := strconv.QuotedPrefix(s)
		if err != nil {
			t.Fatalf("%s:%d: malformed want clause near %q: %v", path, line, s, err)
		}
		pat, err := strconv.Unquote(q)
		if err != nil {
			t.Fatalf("%s:%d: unquoting %q: %v", path, line, q, err)
		}
		pats = append(pats, pat)
		s = s[len(q):]
	}
	return pats
}

// ModuleRoot walks up from the working directory to the enclosing
// go.mod, so fixtures resolve repro/... imports against the real
// module.
func ModuleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal(fmt.Errorf("no go.mod above %s", dir))
		}
		dir = parent
	}
}
