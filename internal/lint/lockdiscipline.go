package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"hydee/internal/lint/analysis"
)

// Lockdiscipline enforces the *Locked naming convention used by
// internal/transport (and any package that adopts it): a function whose
// name ends in "Locked" documents that its caller already holds the
// mutex. Two rules follow:
//
//  1. a *Locked method must not acquire its own receiver's mutex — that
//     is a self-deadlock with sync.Mutex and a latent one with RWMutex;
//  2. a call to a *Locked function is only legal from another *Locked
//     function, or from a function that visibly acquires a mutex
//     (mu.Lock/mu.RLock) before the call, or inside a body a successful
//     mu.TryLock/mu.TryRLock guards: `if mu.TryLock() {…}` or
//     `for cond && mu.TryLock() {…}` (the call may be any conjunct).
//
// Rule 2 is deliberately approximate: it checks that *some* lock is
// held in the enclosing function, not that it is the right one, because
// relating a callee's receiver to the caller's mutex expression is
// aliasing analysis (an endpoint's *Locked methods run under its
// Network's dmu). The convention plus "a lock is held" catches
// the mistakes refactors actually make: calling a *Locked helper from a
// fresh code path with no lock in sight.
var Lockdiscipline = &analysis.Analyzer{
	Name: "lockdiscipline",
	Doc: "*Locked functions must not acquire their receiver's mutex and must only be called " +
		"with a mutex visibly held (or from another *Locked function)",
	Run: runLockdiscipline,
}

func runLockdiscipline(pass *analysis.Pass) (interface{}, error) {
	allow := buildAllowlist(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if strings.HasSuffix(fd.Name.Name, "Locked") {
				checkSelfAcquire(pass, allow, fd)
			}
			checkLockedCalls(pass, allow, fd)
		}
	}
	return nil, nil
}

// checkSelfAcquire flags mu.Lock()/mu.RLock() inside a *Locked method
// when the mutex expression is rooted at the method's receiver.
func checkSelfAcquire(pass *analysis.Pass, allow allowlist, fd *ast.FuncDecl) {
	recv := receiverObj(pass, fd)
	if recv == nil {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a closure runs on its own schedule
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, kind := mutexCall(pass, call, "Lock", "RLock")
		if sel == nil {
			return true
		}
		if rootObj(pass, sel.X) != recv {
			return true
		}
		if !allow.allowed(pass.Fset, call.Pos(), "lockdiscipline") {
			pass.Reportf(call.Pos(), "%s acquires %s inside %s: the *Locked suffix promises the caller "+
				"already holds it (self-deadlock); annotate //hydee:allow lockdiscipline(reason) if intentional",
				kind, render(sel.X), fd.Name.Name)
		}
		return true
	})
}

// checkLockedCalls flags calls to *Locked functions from enclosing
// functions that neither end in Locked nor acquire any mutex before the
// call site.
func checkLockedCalls(pass *analysis.Pass, allow allowlist, fd *ast.FuncDecl) {
	callerLocked := strings.HasSuffix(fd.Name.Name, "Locked")
	// Scopes tracks the innermost function body: fd.Body, or a FuncLit's.
	var visit func(body ast.Node, lockedScope bool)
	visit = func(body ast.Node, lockedScope bool) {
		var acquires []token.Pos // positions of mu.Lock/mu.RLock in this scope
		var guarded []*ast.BlockStmt
		if !lockedScope {
			ast.Inspect(body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					return false
				case *ast.CallExpr:
					if sel, _ := mutexCall(pass, n, "Lock", "RLock"); sel != nil {
						acquires = append(acquires, n.Pos())
					}
				case *ast.IfStmt:
					if tryLocks(pass, n.Cond) {
						guarded = append(guarded, n.Body)
					}
				case *ast.ForStmt:
					if n.Cond != nil && tryLocks(pass, n.Cond) {
						guarded = append(guarded, n.Body)
					}
				}
				return true
			})
		}
		lockHeldBefore := func(pos token.Pos) bool {
			for _, p := range acquires {
				if p < pos {
					return true
				}
			}
			for _, b := range guarded {
				if b.Pos() <= pos && pos < b.End() {
					return true
				}
			}
			return false
		}
		ast.Inspect(body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				// A function literal does not inherit the caller's lock:
				// by the time it runs the lock may be long released.
				visit(lit.Body, false)
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeName(pass, call)
			if callee == "" || !strings.HasSuffix(callee, "Locked") {
				return true
			}
			if lockedScope || lockHeldBefore(call.Pos()) {
				return true
			}
			if !allow.allowed(pass.Fset, call.Pos(), "lockdiscipline") {
				pass.Reportf(call.Pos(), "%s is called without a mutex visibly held: *Locked functions require "+
					"the caller to hold the lock (acquire it first, rename the callee, or annotate "+
					"//hydee:allow lockdiscipline(reason))", callee)
			}
			return true
		})
	}
	visit(fd.Body, callerLocked)
}

// tryLocks reports whether cond holds only if a mutex's TryLock or
// TryRLock succeeded: it is such a call, or a && chain with one among its
// operands.
func tryLocks(pass *analysis.Pass, cond ast.Expr) bool {
	switch c := ast.Unparen(cond).(type) {
	case *ast.CallExpr:
		sel, _ := mutexCall(pass, c, "TryLock", "TryRLock")
		return sel != nil
	case *ast.BinaryExpr:
		return c.Op == token.LAND && (tryLocks(pass, c.X) || tryLocks(pass, c.Y))
	}
	return false
}

// mutexCall recognizes a call of one of the named methods of sync.Mutex or
// sync.RWMutex (directly or by embedding), returning the selector and the
// method name.
func mutexCall(pass *analysis.Pass, call *ast.CallExpr, names ...string) (*ast.SelectorExpr, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !slices.Contains(names, sel.Sel.Name) {
		return nil, ""
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, ""
	}
	return sel, sel.Sel.Name
}

// calleeName returns the bare name of a called function or method, ""
// when the callee is not a simple identifier/selector.
func calleeName(pass *analysis.Pass, call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if _, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok {
			return fun.Name
		}
	case *ast.SelectorExpr:
		if _, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return fun.Sel.Name
		}
	}
	return ""
}

// receiverObj returns the object of fd's receiver variable, nil for
// plain functions or anonymous receivers.
func receiverObj(pass *analysis.Pass, fd *ast.FuncDecl) types.Object {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	return pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]]
}
