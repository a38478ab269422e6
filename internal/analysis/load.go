package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// A Package is one loaded, type-checked package ready for analysis.
type Package struct {
	PkgPath   string
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listedPkg is the subset of `go list -json` output the loader uses.
type listedPkg struct {
	Dir        string
	ImportPath string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	Error      *struct{ Err string }
}

// goList runs `go list -export -json -deps` in dir and returns the
// decoded package stream. Export data is produced by the toolchain's
// build cache, so loading works offline and needs no third-party
// packages driver.
func goList(dir string, patterns []string) ([]listedPkg, error) {
	args := append([]string{"list", "-export", "-json", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter resolves imports from the export-data files `go list
// -export` recorded, caching loaded packages across calls.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// newInfo returns a types.Info with every map analyzers consult.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// Load resolves patterns (e.g. "./...") in the module rooted at dir
// and returns the matched packages parsed and type-checked, ready for
// Run. Only non-test files are analyzed.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var pkgs []*Package
	for _, p := range listed {
		if p.DepOnly || p.Standard {
			continue
		}
		var files []*ast.File
		for _, gf := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, gf), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := newInfo()
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{
			PkgPath:   p.ImportPath,
			Dir:       p.Dir,
			Fset:      fset,
			Files:     files,
			Types:     tpkg,
			TypesInfo: info,
		})
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].PkgPath < pkgs[j].PkgPath })
	return pkgs, nil
}

// LoadDir type-checks the single package in fixtureDir (which may live
// under testdata, outside the module's package space) against the real
// module rooted at modDir: fixture imports — standard library or
// repro/... — are resolved through the toolchain's export data, so
// fixtures exercise the analyzers against the genuine repository types.
// Files whose build constraints exclude them on the host platform are
// skipped, as the go tool would.
func LoadDir(modDir, fixtureDir string) (*Package, error) {
	entries, err := os.ReadDir(fixtureDir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	importSet := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(fixtureDir, e.Name())
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if !fileMatchesTags(f) {
			continue
		}
		files = append(files, f)
		for _, spec := range f.Imports {
			p, _ := strconv.Unquote(spec.Path.Value)
			if p != "" && p != "unsafe" {
				importSet[p] = true
			}
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files selected in %s", fixtureDir)
	}
	exports := map[string]string{}
	if len(importSet) > 0 {
		imports := make([]string, 0, len(importSet))
		for p := range importSet {
			imports = append(imports, p)
		}
		sort.Strings(imports)
		listed, err := goList(modDir, imports)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	info := newInfo()
	conf := types.Config{Importer: exportImporter(fset, exports)}
	pkgPath := "fixture/" + filepath.Base(fixtureDir)
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", fixtureDir, err)
	}
	return &Package{
		PkgPath:   pkgPath,
		Dir:       fixtureDir,
		Fset:      fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}

// fileMatchesTags evaluates f's //go:build constraint (if any) against
// the host's GOOS/GOARCH tags, mirroring how the go tool selects files.
func fileMatchesTags(f *ast.File) bool {
	set := map[string]bool{}
	for _, t := range hostTags() {
		set[t] = true
	}
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				return false
			}
			return expr.Eval(func(tag string) bool { return set[tag] })
		}
	}
	return true
}

// hostTags returns the always-on build tags of the host platform.
func hostTags() []string {
	goos := os.Getenv("GOOS")
	goarch := os.Getenv("GOARCH")
	if goos == "" {
		goos = runtime.GOOS
	}
	if goarch == "" {
		goarch = runtime.GOARCH
	}
	tags := []string{goos, goarch, "gc"}
	switch goos {
	case "linux", "darwin", "freebsd", "netbsd", "openbsd", "dragonfly", "solaris", "illumos", "aix":
		tags = append(tags, "unix")
	}
	return tags
}
