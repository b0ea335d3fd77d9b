package srccheck

import (
	"go/ast"
	"go/token"
)

// wgbalanceRule flags sync.WaitGroup.Add called inside a goroutine
// literal. The spawner can reach Wait before the goroutine has run,
// and Wait then returns with the goroutine's work still outstanding:
// the group must be counted before the go statement. The race
// detector sees this only when Add and Wait happen to overlap.
type wgbalanceRule struct{}

func (wgbalanceRule) Name() string { return "wgbalance" }
func (wgbalanceRule) Doc() string {
	return "no WaitGroup.Add inside a go-spawned literal (it races Wait); call Add before the go statement"
}

func (wgbalanceRule) Check(m *Module, pkg *Package, report func(pos token.Pos, format string, args ...any)) {
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := g.Call.Fun.(*ast.FuncLit)
			if !ok {
				return true
			}
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false // a nested go statement is checked on its own
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				recv, name := methodOf(pkg, call)
				if name != "(*sync.WaitGroup).Add" {
					return true
				}
				// A group declared inside the literal is the goroutine's
				// own, waited on there.
				obj := pkg.Info.ObjectOf(rootIdent(call.Fun.(*ast.SelectorExpr).X))
				if obj == nil || obj.Pos() < lit.Pos() || obj.Pos() >= lit.End() {
					report(call.Pos(), "%s.Add inside the spawned goroutine races Wait; call Add before the go statement", recv)
				}
				return true
			})
			return true
		})
	}
}

// rootIdent returns the variable an operand such as wg, p.wg or
// (*p).wg starts from, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}
