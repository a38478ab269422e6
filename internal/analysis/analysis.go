// Package analysis is hopdb-vet's analyzer suite: a set of static
// checkers that mechanically enforce the repository invariants that
// otherwise exist only as prose in doc comments — label epochs are
// published by a single atomic swap (atomicfield), mmap-backed and
// scratch-backed slices are never retained or written (noaliasretain),
// fallible-backend errors are never folded into the unreachable
// sentinel or cached (errnocache), and no I/O or Querier call happens
// under the serving-path mutexes (lockscope).
//
// The package deliberately depends only on the standard library: the
// Analyzer/Pass/Diagnostic surface mirrors golang.org/x/tools/go/analysis
// (so analyzers could be ported to a real multichecker verbatim if the
// dependency ever lands), and the driver in load.go resolves packages
// through `go list -export -json`, type-checking source against the
// toolchain's export data instead of requiring go/packages.
//
// Every analyzer honors the opt-out annotation
//
//	//hopdb:ignore <analyzer> <reason>
//
// placed on the offending line or alone on the line above it. The
// reason is mandatory — a reason-less ignore is itself reported — so
// each deliberate exception documents why the invariant does not apply.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer is one named invariant checker. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer (minus facts and requires,
// which no hopdb analyzer needs).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //hopdb:ignore annotations. One lowercase word.
	Name string
	// Doc is the one-paragraph contract shown by hopdb-vet -list.
	Doc string
	// Run reports the package's violations through pass.Reportf.
	Run func(pass *Pass) error
}

// A Pass hands one type-checked package to an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Run applies every analyzer to every package, filters the results
// through the packages' //hopdb:ignore annotations, and returns the
// surviving diagnostics sorted by position. Malformed annotations
// (missing reason, unknown analyzer name) are reported as diagnostics
// of the pseudo-analyzer "ignore".
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		ign := collectIgnores(pkg, analyzers)
		var raw []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				diags:     &raw,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
		diags = append(diags, ign.filter(raw)...)
		diags = append(diags, ign.malformed...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// All is the hopdb-vet suite in the order the catalog in
// docs/ARCHITECTURE.md lists it.
var All = []*Analyzer{Atomicfield, Noaliasretain, Errnocache, Lockscope}

// inspect walks every file's AST, maintaining the ancestor stack (the
// last element of stack is n's parent). Return false from f to skip n's
// children.
func inspect(files []*ast.File, f func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			descend := f(n, stack)
			if descend {
				stack = append(stack, n)
			}
			return descend
		})
	}
}
