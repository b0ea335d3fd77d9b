package srccheck

import (
	"go/ast"
	"go/token"
	"go/types"
)

// lockbalanceRule flags a sync.Mutex or RWMutex acquisition whose
// function never releases the same lock: no Unlock (RUnlock) on the
// same receiver expression, plain or deferred, anywhere in the body.
// A function that holds a lock on return deadlocks the next caller,
// and one called once per process (a final write, a snapshot taken at
// exit) passes every test that way. A release on only some paths is
// not this rule's concern: the -race soaks of the server and the
// executors reach those branches. A function literal is its own body,
// except a deferred one, whose releases count for its encloser.
type lockbalanceRule struct{}

func (lockbalanceRule) Name() string { return "lockbalance" }
func (lockbalanceRule) Doc() string {
	return "every Mutex/RWMutex Lock needs an Unlock of the same lock in the same function"
}

// lockRelease maps an acquisition to its release.
var lockRelease = map[string]string{
	"(*sync.Mutex).Lock":    "(*sync.Mutex).Unlock",
	"(*sync.RWMutex).Lock":  "(*sync.RWMutex).Unlock",
	"(*sync.RWMutex).RLock": "(*sync.RWMutex).RUnlock",
}

func (lockbalanceRule) Check(m *Module, pkg *Package, report func(pos token.Pos, format string, args ...any)) {
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if fd, ok := n.(*ast.FuncDecl); ok && fd.Body != nil {
				checkLockBody(pkg, fd.Body, report)
			} else if lit, ok := n.(*ast.FuncLit); ok {
				checkLockBody(pkg, lit.Body, report)
			}
			return true
		})
	}
}

func checkLockBody(pkg *Package, body *ast.BlockStmt, report func(pos token.Pos, format string, args ...any)) {
	var acquired []*ast.CallExpr
	released := map[string]bool{} // receiver text + method full name
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, visit)
				return false
			}
		case *ast.CallExpr:
			if recv, name := methodOf(pkg, n); lockRelease[name] != "" {
				acquired = append(acquired, n)
			} else {
				released[recv+" "+name] = true
			}
		}
		return true
	}
	ast.Inspect(body, visit)
	for _, call := range acquired {
		if recv, name := methodOf(pkg, call); !released[recv+" "+lockRelease[name]] {
			report(call.Pos(), "%s.%s() is never released in this function; defer its unlock next to it",
				recv, call.Fun.(*ast.SelectorExpr).Sel.Name)
		}
	}
}

// methodOf returns the receiver text and the full name of the method
// a call such as c.mu.Lock() invokes ("c.mu", "(*sync.Mutex).Lock"),
// or empty strings when the call is not a method or function call
// through a selector.
func methodOf(pkg *Package, call *ast.CallExpr) (recv, name string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", ""
	}
	return types.ExprString(sel.X), fn.FullName()
}
