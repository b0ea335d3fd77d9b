package srccheck

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// goroleakRule flags a goroutine literal that sends on a channel its
// spawning function made unbuffered:
//
//	ch := make(chan T)        // unbuffered
//	go func() { ch <- v }()   // blocks until someone receives
//	if err := ...; err != nil {
//	    return err            // nobody ever will: the goroutine leaks
//	}
//	<-ch
//
// The fix the server codifies is a buffer of one: the send always
// completes, and a result nobody reads is garbage-collected. The rule
// asks for that buffer whether or not the spawner happens to receive
// on every path, so it needs no control-flow analysis. Sends in a
// select's comm clauses can be bypassed and are skipped, as are
// channels whose make is not visible in the declaration (parameters,
// fields) or whose capacity is not a constant.
type goroleakRule struct{}

func (goroleakRule) Name() string { return "goroleak" }
func (goroleakRule) Doc() string {
	return "a go-spawned literal's send on a channel the spawner made unbuffered; buffer it so an abandoned result cannot pin the goroutine"
}

func (goroleakRule) Check(m *Module, pkg *Package, report func(pos token.Pos, format string, args ...any)) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			unbuffered := unbufferedChans(pkg, fd.Body)
			if len(unbuffered) == 0 {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
					for _, send := range goroutineSends(lit) {
						id, ok := send.Chan.(*ast.Ident)
						if ok && unbuffered[pkg.Info.Uses[id]] {
							report(send.Pos(),
								"goroutine sends on unbuffered channel %s, which %s can abandon (leak); use make(chan ..., 1)",
								id.Name, fd.Name.Name)
						}
					}
				}
				return true
			})
		}
	}
}

// unbufferedChans returns the variables body assigns a make(chan T)
// or make(chan T, 0) to.
func unbufferedChans(pkg *Package, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, rhs := range assign.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok {
				continue
			}
			if _, isChan := pkg.Info.TypeOf(call).Underlying().(*types.Chan); !isChan {
				continue
			}
			fn, _ := call.Fun.(*ast.Ident)
			if b, ok := pkg.Info.Uses[fn].(*types.Builtin); !ok || b.Name() != "make" {
				continue
			}
			if len(call.Args) == 2 {
				if v := pkg.Info.Types[call.Args[1]].Value; v == nil || constant.Sign(v) != 0 {
					continue
				}
			}
			if id, ok := assign.Lhs[i].(*ast.Ident); ok {
				if obj := pkg.Info.ObjectOf(id); obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// goroutineSends collects the send statements of a goroutine literal
// outside select comm clauses and nested literals (those belong to
// yet another goroutine).
func goroutineSends(lit *ast.FuncLit) []*ast.SendStmt {
	var sends []*ast.SendStmt
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return n == lit
		case *ast.CommClause:
			for _, s := range n.Body {
				ast.Inspect(s, visit)
			}
			return false
		case *ast.SendStmt:
			sends = append(sends, n)
		}
		return true
	}
	ast.Inspect(lit, visit)
	return sends
}
