package srccheck

import (
	"go/ast"
	"go/token"
	"go/types"
)

// droppedErrRule flags discarded errors in internal/ and cmd/: a call
// whose error result vanishes in an expression statement (including
// defer and go), or an error explicitly assigned to the blank
// identifier. PR 1 threaded typed errors through every decode and I/O
// path; this rule keeps them from silently leaking back out of the
// chain.
type droppedErrRule struct{}

func (droppedErrRule) Name() string { return "droppederr" }
func (droppedErrRule) Doc() string {
	return "no dropped error returns (bare calls or assignment to _) in internal/ and cmd/"
}

func (r droppedErrRule) Check(m *Module, pkg *Package, report func(pos token.Pos, format string, args ...any)) {
	if !isLibraryPkg(pkg) && !isCmdPkg(pkg) {
		return
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				r.checkCall(pkg, st.X, "", report)
			case *ast.DeferStmt:
				r.checkCall(pkg, st.Call, "defer ", report)
			case *ast.GoStmt:
				r.checkCall(pkg, st.Call, "go ", report)
			case *ast.AssignStmt:
				r.checkAssign(pkg, st, report)
			}
			return true
		})
	}
}

// checkCall reports a call statement that returns an error among its
// results.
func (droppedErrRule) checkCall(pkg *Package, expr ast.Expr, prefix string, report func(pos token.Pos, format string, args ...any)) {
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return
	}
	if errorResultIndex(pkg.Info, call) < 0 {
		return
	}
	if isExemptPrint(pkg, call) || isExemptSinkMethod(pkg, call) {
		return
	}
	report(call.Pos(), "%serror result of %s dropped; handle it or propagate it", prefix, types.ExprString(call.Fun))
}

// isExemptPrint exempts fmt's print family when the destination cannot
// meaningfully fail: Print/Printf/Println (console), and
// Fprint/Fprintf/Fprintln to os.Stdout, os.Stderr, or an in-memory
// sink (*bytes.Buffer, *strings.Builder). Fprint* to any other writer
// — a file, a network connection, an io.Writer parameter — stays
// flagged: those errors are real.
func isExemptPrint(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pkg.Info.Uses[x].(*types.PkgName)
	if !ok || pn.Imported().Path() != "fmt" {
		return false
	}
	switch sel.Sel.Name {
	case "Print", "Printf", "Println":
		return true
	case "Fprint", "Fprintf", "Fprintln":
		return len(call.Args) > 0 && isExemptWriter(pkg, call.Args[0])
	}
	return false
}

// isExemptSinkMethod exempts the write methods of the in-memory sinks
// themselves (buf.WriteByte, sb.WriteString, ...), which are
// documented to always return a nil error.
func isExemptSinkMethod(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Write", "WriteString", "WriteByte", "WriteRune":
	default:
		return false
	}
	return isMemSink(pkg, sel.X)
}

// isExemptWriter reports whether e is os.Stdout/os.Stderr or an
// in-memory sink.
func isExemptWriter(pkg *Package, e ast.Expr) bool {
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if x, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := pkg.Info.Uses[x].(*types.PkgName); ok && pn.Imported().Path() == "os" {
				return sel.Sel.Name == "Stdout" || sel.Sel.Name == "Stderr"
			}
		}
	}
	return isMemSink(pkg, e)
}

// isMemSink reports whether e has static type bytes.Buffer or
// strings.Builder (or a pointer to one), whose writes never return a
// non-nil error.
func isMemSink(pkg *Package, e ast.Expr) bool {
	t := pkg.Info.Types[e].Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	full := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	return full == "bytes.Buffer" || full == "strings.Builder"
}

// checkAssign reports error values assigned to the blank identifier.
func (droppedErrRule) checkAssign(pkg *Package, st *ast.AssignStmt, report func(pos token.Pos, format string, args ...any)) {
	if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
		// Multi-value call: x, _ := f(). Find blank slots holding errors.
		call, ok := st.Rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		tuple, ok := pkg.Info.Types[call].Type.(*types.Tuple)
		if !ok || tuple.Len() != len(st.Lhs) {
			return
		}
		for i, lhs := range st.Lhs {
			if isBlank(lhs) && isErrorType(tuple.At(i).Type()) {
				report(lhs.Pos(), "error result of %s assigned to _; handle it or propagate it", types.ExprString(call.Fun))
			}
		}
		return
	}
	for i, lhs := range st.Lhs {
		if i >= len(st.Rhs) || !isBlank(lhs) {
			continue
		}
		if isErrorType(pkg.Info.Types[st.Rhs[i]].Type) {
			report(lhs.Pos(), "error value %s assigned to _; handle it or propagate it", types.ExprString(st.Rhs[i]))
		}
	}
}

// errorResultIndex returns the index of the first error among the
// call's results, or -1. Type conversions and calls with no error
// results return -1.
func errorResultIndex(info *types.Info, call *ast.CallExpr) int {
	tv, ok := info.Types[call]
	if !ok || !tv.IsValue() {
		return -1
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return i
			}
		}
	default:
		if isErrorType(t) {
			return 0
		}
	}
	return -1
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
