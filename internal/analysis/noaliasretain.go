package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// taintKind distinguishes the two aliasing regimes the analyzer tracks.
type taintKind int

const (
	taintNone taintKind = iota
	// taintReadonly marks slices aliasing a published label epoch or a
	// read-only mmap region (label.FlatIndex / label.CompactIndex
	// arrays, and the rows a dynamic.Epoch resolves to): writing
	// through them is a data race on heap indexes and a SIGSEGV on
	// mapped ones, and retaining them can outlive the epoch or the
	// mapping.
	taintReadonly
	// taintScratch marks slices backed by per-worker scratch buffers
	// (diskidx.Scratch): the next query overwrites them, so retaining
	// one (caching it, storing it in a field, returning it from an
	// exported API) serves corrupt answers later.
	taintScratch
)

// TypeRef names a type or method for the analyzer's configuration.
type TypeRef struct {
	Pkg, Name string
}

// MethodRef names a method for the sink configuration.
type MethodRef struct {
	Pkg, Typ, Method string
}

// NoaliasConfig parameterizes Noaliasretain so its golden tests can
// register fixture-local container types next to the real ones.
type NoaliasConfig struct {
	// Readonly lists container types whose slice-valued fields (and
	// slice-returning methods) alias immutable published memory.
	Readonly []TypeRef
	// Scratch lists container types whose slice-valued fields (and
	// slice-returning methods) alias reusable scratch buffers.
	Scratch []TypeRef
	// Sinks lists methods that retain their slice arguments beyond the
	// call (caches).
	Sinks []MethodRef
}

// DefaultNoaliasConfig covers the repository's real aliasing sources:
// the CSR label arrays that may be mmap-backed (PR 1/7), the rows of a
// published update epoch — base or overlay, a reader cannot tell which —
// and the disk index's per-worker decode buffers (PR 3).
var DefaultNoaliasConfig = NoaliasConfig{
	Readonly: []TypeRef{
		{"repro/internal/label", "FlatIndex"},
		{"repro/internal/label", "CompactIndex"},
		{"repro/internal/dynamic", "Epoch"},
	},
	Scratch: []TypeRef{
		{"repro/internal/diskidx", "Scratch"},
	},
	Sinks: []MethodRef{
		{"repro/internal/lru", "Cache", "Put"},
		{"repro/internal/diskidx", "lruCache", "put"},
	},
}

// Noaliasretain reports code that retains or writes through slices
// aliasing mmap-backed label arrays or reusable scratch buffers.
//
// It runs a conservative, flow-insensitive taint walk per function:
// selecting a slice field from a configured container type (or calling
// one of its slice-returning methods) taints the result, taint follows
// assignments, slicing, and indexing, and four shapes are violations —
// writing an element of (or a field of an element of, or
// copy/append-ing into) readonly-tainted memory, storing any tainted
// slice into a struct field, map, slice, or composite literal, sending
// one down a channel, passing one to a cache-insertion sink, and
// returning a scratch-tainted slice from an exported function. Containers the function itself constructs with a
// composite literal are exempt: until published they are owned memory.
var Noaliasretain = NewNoaliasretain(DefaultNoaliasConfig)

// NewNoaliasretain builds the analyzer for a configuration; tests add
// fixture types to the default set.
func NewNoaliasretain(cfg NoaliasConfig) *Analyzer {
	return &Analyzer{
		Name: "noaliasretain",
		Doc: "forbid retaining or writing slices that alias mmap-backed label arrays " +
			"(label.FlatIndex/CompactIndex) or per-worker scratch buffers (diskidx.Scratch); " +
			"a retained alias outlives its epoch or mapping and a write is a race or a SIGSEGV",
		Run: func(pass *Pass) error { return runNoaliasretain(pass, cfg) },
	}
}

func runNoaliasretain(pass *Pass, cfg NoaliasConfig) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFuncAliasing(pass, cfg, fd)
			}
		}
	}
	return nil
}

// aliasScope is the per-function taint state.
type aliasScope struct {
	pass *Pass
	cfg  NoaliasConfig
	// vars maps locals to the strongest taint ever assigned to them
	// (flow-insensitive: one tainted assignment taints every use).
	vars map[*types.Var]taintKind
	// owned holds container-typed locals constructed in this function.
	owned map[*types.Var]bool
}

func checkFuncAliasing(pass *Pass, cfg NoaliasConfig, fd *ast.FuncDecl) {
	sc := &aliasScope{
		pass:  pass,
		cfg:   cfg,
		vars:  map[*types.Var]taintKind{},
		owned: map[*types.Var]bool{},
	}
	// Methods of a container type are that type's implementation: they
	// own the arrays they manage, and the invariants they uphold are
	// enforced at their public boundary, not inside it.
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		if t := pass.TypesInfo.TypeOf(fd.Recv.List[0].Type); t != nil {
			if sc.containerKind(t) != taintNone {
				return
			}
		}
	}
	// Fixpoint over assignments: taint flows var-to-var regardless of
	// statement order (conservative for loops that shuffle aliases).
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			if len(as.Lhs) != len(as.Rhs) {
				return true // multi-value calls: call results are not taint sources
			}
			for i, lhs := range as.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				v := sc.localVar(id)
				if v == nil {
					continue
				}
				rhs := ast.Unparen(as.Rhs[i])
				if isCompositeConstruction(rhs) && sc.containerKind(sc.pass.TypesInfo.TypeOf(rhs)) != taintNone {
					if !sc.owned[v] {
						sc.owned[v] = true
						changed = true
					}
					continue
				}
				if k := sc.taintOf(rhs); k > sc.vars[v] {
					sc.vars[v] = k
					changed = true
				}
			}
			return true
		})
	}
	sc.reportViolations(fd)
}

// localVar resolves an identifier to the local variable it names.
func (sc *aliasScope) localVar(id *ast.Ident) *types.Var {
	if v, ok := sc.pass.TypesInfo.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := sc.pass.TypesInfo.Uses[id].(*types.Var); ok && !v.IsField() {
		return v
	}
	return nil
}

// isCompositeConstruction matches T{...} and &T{...}.
func isCompositeConstruction(e ast.Expr) bool {
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = u.X
	}
	_, ok := e.(*ast.CompositeLit)
	return ok
}

// containerKind classifies a type against the configured container
// sets.
func (sc *aliasScope) containerKind(t types.Type) taintKind {
	for _, r := range sc.cfg.Readonly {
		if typeIs(t, r.Pkg, r.Name) {
			return taintReadonly
		}
	}
	for _, r := range sc.cfg.Scratch {
		if typeIs(t, r.Pkg, r.Name) {
			return taintScratch
		}
	}
	return taintNone
}

// taintOf computes the taint of an expression.
func (sc *aliasScope) taintOf(e ast.Expr) taintKind {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v := sc.localVar(e); v != nil {
			return sc.vars[v]
		}
	case *ast.SelectorExpr:
		// Selecting a slice-ish field out of a container taints it —
		// unless the container is owned by this function.
		if f := selectedField(sc.pass, e); f != nil && isSliceish(f.Type()) {
			base := sc.pass.TypesInfo.TypeOf(e.X)
			if k := sc.containerKind(base); k != taintNone && !sc.isOwnedExpr(e.X) {
				return k
			}
		}
		return taintNone
	case *ast.IndexExpr:
		return sc.taintOf(e.X)
	case *ast.SliceExpr:
		return sc.taintOf(e.X)
	case *ast.CallExpr:
		// A slice-returning method on a container aliases its arrays
		// (FlatIndex.Out/In); other call results are treated as fresh.
		if callee := calleeOf(sc.pass, e); callee != nil {
			if recv := callee.Signature().Recv(); recv != nil {
				res := callee.Signature().Results()
				if k := sc.containerKind(recv.Type()); k != taintNone && res.Len() == 1 && isSliceish(res.At(0).Type()) {
					return k
				}
			}
		}
		return taintNone
	case *ast.StarExpr:
		return sc.taintOf(e.X)
	}
	return taintNone
}

// isOwnedExpr reports whether the container expression is a local the
// function constructed itself.
func (sc *aliasScope) isOwnedExpr(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	v := sc.localVar(id)
	return v != nil && sc.owned[v]
}

// kindNoun names a taint kind in diagnostics.
func kindNoun(k taintKind) string {
	if k == taintScratch {
		return "scratch-backed"
	}
	return "mmap/epoch-aliasing"
}

// reportViolations walks the function body for the violation shapes.
func (sc *aliasScope) reportViolations(fd *ast.FuncDecl) {
	exported := fd.Name.IsExported()
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				lhs := ast.Unparen(lhs)
				// Writing an element of readonly memory, whole
				// (row[i] = e) or by field (row[i].Dist = d); a field
				// reached through a pointer lives elsewhere.
				target := lhs
				for {
					sel, ok := target.(*ast.SelectorExpr)
					if !ok || selectedField(sc.pass, sel) == nil {
						break
					}
					if _, ptr := types.Unalias(sc.pass.TypesInfo.TypeOf(sel.X)).Underlying().(*types.Pointer); ptr {
						break
					}
					target = ast.Unparen(sel.X)
				}
				if ix, ok := target.(*ast.IndexExpr); ok {
					if k := sc.taintOf(ix.X); k == taintReadonly {
						sc.pass.Reportf(ix.Pos(),
							"write into %s slice %s: published label arrays are immutable (a write is a race on heap indexes and a SIGSEGV on mmap)",
							kindNoun(k), exprString(ix.X))
					}
				}
				// Storing a tainted slice anywhere that outlives the call.
				if i < len(n.Rhs) {
					if k := sc.taintOf(n.Rhs[i]); k != taintNone {
						switch lhs.(type) {
						case *ast.SelectorExpr, *ast.IndexExpr:
							sc.pass.Reportf(n.Rhs[i].Pos(),
								"%s slice %s stored in a field or collection: the alias outlives its epoch/buffer",
								kindNoun(k), exprString(n.Rhs[i]))
						}
					}
				}
			}
		case *ast.SendStmt:
			if k := sc.taintOf(n.Value); k != taintNone {
				sc.pass.Reportf(n.Value.Pos(),
					"%s slice %s sent over a channel: the alias escapes its epoch/buffer",
					kindNoun(k), exprString(n.Value))
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				v := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if k := sc.taintOf(v); k != taintNone {
					sc.pass.Reportf(v.Pos(),
						"%s slice %s stored in a composite literal: the alias outlives its epoch/buffer",
						kindNoun(k), exprString(v))
				}
			}
		case *ast.ReturnStmt:
			if !exported {
				return true
			}
			for _, res := range n.Results {
				if k := sc.taintOf(res); k == taintScratch {
					sc.pass.Reportf(res.Pos(),
						"scratch-backed slice %s returned from exported %s: the next query overwrites it under the caller",
						exprString(res), fd.Name.Name)
				}
			}
		case *ast.CallExpr:
			sc.checkCall(n)
		}
		return true
	})
}

// checkCall flags builtin writes into readonly memory and tainted
// arguments reaching retention sinks.
func (sc *aliasScope) checkCall(call *ast.CallExpr) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		switch id.Name {
		case "copy", "append":
			if len(call.Args) > 0 {
				if k := sc.taintOf(call.Args[0]); k == taintReadonly {
					sc.pass.Reportf(call.Args[0].Pos(),
						"%s into %s slice %s: published label arrays are immutable",
						id.Name, kindNoun(k), exprString(call.Args[0]))
				}
			}
		}
	}
	callee := calleeOf(sc.pass, call)
	if callee == nil {
		return
	}
	for _, s := range sc.cfg.Sinks {
		if callee.Name() != s.Method || pkgPathOf(callee) != s.Pkg {
			continue
		}
		recv := callee.Signature().Recv()
		if recv == nil {
			continue
		}
		rn := namedOf(recv.Type())
		if rn == nil || rn.Obj().Name() != s.Typ {
			continue
		}
		for _, arg := range call.Args {
			if k := sc.taintOf(arg); k != taintNone {
				sc.pass.Reportf(arg.Pos(),
					"%s slice %s inserted into cache via %s.%s: cached entries outlive the buffer they alias",
					kindNoun(k), exprString(arg), s.Typ, s.Method)
			}
		}
	}
}

// isSliceish reports whether t is a slice or an array of slices (the
// scratch buffers are [2][]byte-shaped).
func isSliceish(t types.Type) bool {
	switch t := types.Unalias(t).(type) {
	case *types.Slice:
		return true
	case *types.Array:
		return isSliceish(t.Elem())
	}
	return false
}
