package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// lockscopeMarker annotates mutex fields whose critical sections must
// stay small and purely computational: the registry's attach/detach
// lock, the per-dataset admin lock, the disk index's cache lock, and the
// dynamic engine's writer lock (Path and Stats take it) all sit on (or
// next to) the serving path, where an I/O call or a blocking
// channel op under the lock stalls every reader behind it.
const lockscopeMarker = "//hopdb:lockscope"

// ioPackages are packages whose calls count as I/O under a lock.
var ioPackages = map[string]bool{
	"os":       true,
	"net":      true,
	"net/http": true,
	"syscall":  true,
	"io":       true,
	"io/fs":    true,
}

// ioFuncs are specific functions outside ioPackages that block or
// perform I/O.
var ioFuncs = map[TypeRef]bool{
	{"time", "Sleep"}:   true,
	{"fmt", "Fprint"}:   true,
	{"fmt", "Fprintf"}:  true,
	{"fmt", "Fprintln"}: true,
}

// querierMethods are the query-contract methods (hopdb.Querier and its
// extensions); calling one under a serving-path mutex nests an
// arbitrarily slow backend query (disk seek, HTTP round trip) inside
// the critical section.
var querierMethods = map[string]bool{
	"Distance":          true,
	"DistanceBatchInto": true,
	"Lookup":            true,
	"LookupBatchInto":   true,
	"Path":              true,
	"N":                 true,
	"Stats":             true,
	"Close":             true,
	"InsertEdge":        true,
	"DeleteEdge":        true,
	"UpdateStats":       true,
	"Seq":               true,
	"ReplicationLog":    true,
	"ApplyReplicated":   true,
}

// querierFuncs are package-level functions that drive a Querier.
var querierFuncs = map[TypeRef]bool{
	{"repro", "ApplyEdgeOps"}: true,
}

// Lockscope reports I/O calls, channel operations, and Querier calls
// inside critical sections of mutexes marked //hopdb:lockscope.
//
// The walk is lexical and per-function: a section opens at
// x.<field>.Lock() / RLock() on a marked field and closes at the
// matching Unlock in the same statement list (a deferred Unlock keeps
// the section open to the end of the function; branches are scanned
// with their own copy of the held set, so an early Unlock+return path
// is not misattributed). Calls to other functions in this package are
// not followed — the analyzer checks what the critical section does
// directly, which is exactly the shape all three real locks have.
var Lockscope = &Analyzer{
	Name: "lockscope",
	Doc: "forbid I/O, channel operations, and Querier calls while holding a mutex marked " +
		"//hopdb:lockscope; the registry, admin, and disk-cache locks sit on the serving " +
		"path and anything slow under them stalls every reader behind the lock",
	Run: runLockscope,
}

func runLockscope(pass *Pass) error {
	marked := annotatedFields(pass, lockscopeMarker)
	if len(marked) == 0 {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				scanLocked(pass, marked, fd.Body.List, map[*types.Var]bool{})
			}
		}
	}
	return nil
}

// lockCall matches `<expr>.<field>.Lock/RLock/Unlock/RUnlock()` on a
// marked mutex field and returns the field and whether it acquires.
func lockCall(pass *Pass, marked map[*types.Var]bool, call *ast.CallExpr) (field *types.Var, acquire, ok bool) {
	sel, selOK := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !selOK {
		return nil, false, false
	}
	var op string
	switch sel.Sel.Name {
	case "Lock", "RLock":
		op = "lock"
	case "Unlock", "RUnlock":
		op = "unlock"
	default:
		return nil, false, false
	}
	inner, innerOK := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !innerOK {
		return nil, false, false
	}
	f := selectedField(pass, inner)
	if f == nil || !marked[f] {
		return nil, false, false
	}
	return f, op == "lock", true
}

// scanLocked walks a statement list tracking which marked mutexes are
// held; held is copied into branches so each path is scanned with its
// own lock state.
func scanLocked(pass *Pass, marked map[*types.Var]bool, stmts []ast.Stmt, held map[*types.Var]bool) {
	held = copyHeld(held)
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if f, acquire, ok := lockCall(pass, marked, call); ok {
					if acquire {
						held[f] = true
					} else {
						delete(held, f)
					}
					continue
				}
			}
			checkUnder(pass, held, stmt)
		case *ast.DeferStmt:
			// defer mu.Unlock() keeps the section open until return;
			// other deferred work runs after the lock is (usually)
			// released, so its body is not attributed to the section.
			if _, _, ok := lockCall(pass, marked, s.Call); ok {
				continue
			}
			if len(held) > 0 {
				checkExprUnder(pass, held, s.Call.Fun)
				for _, arg := range s.Call.Args {
					checkExprUnder(pass, held, arg)
				}
			}
		case *ast.BlockStmt:
			scanLocked(pass, marked, s.List, held)
		case *ast.IfStmt:
			if s.Init != nil {
				checkUnder(pass, held, s.Init)
			}
			checkExprUnder(pass, held, s.Cond)
			scanLocked(pass, marked, s.Body.List, held)
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				scanLocked(pass, marked, e.List, held)
			case *ast.IfStmt:
				scanLocked(pass, marked, []ast.Stmt{e}, held)
			}
		case *ast.ForStmt:
			if s.Init != nil {
				checkUnder(pass, held, s.Init)
			}
			if s.Cond != nil {
				checkExprUnder(pass, held, s.Cond)
			}
			if s.Post != nil {
				checkUnder(pass, held, s.Post)
			}
			scanLocked(pass, marked, s.Body.List, held)
		case *ast.RangeStmt:
			checkExprUnder(pass, held, s.X)
			scanLocked(pass, marked, s.Body.List, held)
		case *ast.SwitchStmt:
			if s.Init != nil {
				checkUnder(pass, held, s.Init)
			}
			if s.Tag != nil {
				checkExprUnder(pass, held, s.Tag)
			}
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					scanLocked(pass, marked, cc.Body, held)
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					scanLocked(pass, marked, cc.Body, held)
				}
			}
		default:
			checkUnder(pass, held, stmt)
		}
	}
}

func copyHeld(held map[*types.Var]bool) map[*types.Var]bool {
	out := make(map[*types.Var]bool, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// heldName names one held mutex for diagnostics.
func heldName(held map[*types.Var]bool) string {
	for v := range held {
		return v.Name()
	}
	return "?"
}

// checkUnder inspects a whole statement subtree executed with locks
// held.
func checkUnder(pass *Pass, held map[*types.Var]bool, n ast.Node) {
	if len(held) == 0 {
		return
	}
	checkExprUnder(pass, held, n)
}

// checkExprUnder reports the violation shapes anywhere in the subtree,
// skipping function literals (defined, not necessarily run, under the
// lock) and go statements (run outside it).
func checkExprUnder(pass *Pass, held map[*types.Var]bool, root ast.Node) {
	if root == nil || len(held) == 0 {
		return
	}
	mu := heldName(held)
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send while holding %s (marked %s): a blocked receiver stalls every reader behind the lock", mu, lockscopeMarker)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pass.Reportf(n.Pos(), "channel receive while holding %s (marked %s): a silent sender stalls every reader behind the lock", mu, lockscopeMarker)
			}
		case *ast.SelectStmt:
			pass.Reportf(n.Pos(), "select while holding %s (marked %s): channel operations must not run under this lock", mu, lockscopeMarker)
			return false
		case *ast.CallExpr:
			if why, bad := classifyLockedCall(pass, n); bad {
				pass.Reportf(n.Pos(), "%s while holding %s (marked %s): the critical section must stay computational", why, mu, lockscopeMarker)
			}
		}
		return true
	})
}

// classifyLockedCall decides whether a call is I/O or a Querier call.
func classifyLockedCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	callee := calleeOf(pass, call)
	if callee == nil {
		return "", false
	}
	pkg := pkgPathOf(callee)
	if ioPackages[pkg] || ioFuncs[TypeRef{pkg, callee.Name()}] {
		return "I/O call " + callName(call, callee), true
	}
	if recv := callee.Signature().Recv(); recv != nil {
		rn := namedOf(recv.Type())
		if rn != nil {
			recvPkg := pkgPathOf(rn.Obj())
			if ioPackages[recvPkg] {
				return "I/O call " + callName(call, callee), true
			}
			if recvPkg == "repro" && querierMethods[callee.Name()] {
				return "Querier call " + callName(call, callee), true
			}
		}
		// Interface methods: receiver may be an unnamed interface; the
		// declaring package still identifies the contract.
		if recvPkg := pkgPathOf(callee); recvPkg == "repro" && querierMethods[callee.Name()] {
			return "Querier call " + callName(call, callee), true
		}
	}
	if querierFuncs[TypeRef{pkg, callee.Name()}] {
		return "Querier call " + callName(call, callee), true
	}
	return "", false
}

// callName renders "pkg-or-recv.Method" for diagnostics.
func callName(call *ast.CallExpr, callee *types.Func) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return exprString(sel)
	}
	return callee.Name()
}
