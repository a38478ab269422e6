package analysis_test

import (
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

var (
	moduleOnce sync.Once
	modulePkgs []*analysis.Package
	moduleErr  error
)

// loadModule type-checks every package of the module once and shares the
// result between the repository-wide tests.
func loadModule(t *testing.T) []*analysis.Package {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	root := analysistest.ModuleRoot(t)
	moduleOnce.Do(func() { modulePkgs, moduleErr = analysis.Load(root, "./...") })
	if moduleErr != nil {
		t.Fatalf("loading module: %v", moduleErr)
	}
	return modulePkgs
}

// TestRepositoryClean runs the full hopdb-vet suite over the module and
// requires zero findings: every deliberate exception must carry a
// //hopdb:ignore with a reason.
func TestRepositoryClean(t *testing.T) {
	pkgs := loadModule(t)
	// The module's one build configuration: default tags, host platform.
	t.Run("default", func(t *testing.T) {
		diags, err := analysis.Run(pkgs, analysis.All)
		if err != nil {
			t.Fatalf("running analyzers: %v", err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	})
}

// TestUnsafeConfined holds the module's use of package unsafe to the one
// file that needs it: the in-place view of the v2 flat format. Any other
// non-test file importing unsafe fails, so a new unsafe path has to be
// argued for here rather than slipping in.
func TestUnsafeConfined(t *testing.T) {
	pkgs := loadModule(t)
	root := analysistest.ModuleRoot(t)
	const allowed = "internal/label/flat_cast.go"
	var importers []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, spec := range f.Imports {
				if p, _ := strconv.Unquote(spec.Path.Value); p != "unsafe" {
					continue
				}
				rel, err := filepath.Rel(root, pkg.Fset.Position(f.Package).Filename)
				if err != nil {
					t.Fatal(err)
				}
				importers = append(importers, filepath.ToSlash(rel))
			}
		}
	}
	if len(importers) != 1 || importers[0] != allowed {
		t.Errorf("non-test files importing unsafe: %q, want exactly [%q]", importers, allowed)
	}
}
