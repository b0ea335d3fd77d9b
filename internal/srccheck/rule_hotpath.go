package srccheck

import (
	"go/ast"
	"go/token"
	"go/types"
)

// hotPathRule polices the hot-kernel set (IsHotFunc: SpMV entry
// points, decode loops, dense vector kernels). The paper's premise is
// that SpMV is bandwidth-bound and the compressed kernels spend their
// saved bandwidth on decode instructions, so the loops cannot afford
// hidden work: no fmt/log formatting, no print builtins, and no
// interface boxing — a concrete value passed as an interface argument
// heap-allocates on every call. Arguments of a panic call are exempt:
// that path executes at most once, on corrupt data.
type hotPathRule struct{}

func (hotPathRule) Name() string { return "hotpath" }
func (hotPathRule) Doc() string {
	return "no fmt/log calls or interface boxing inside hot-kernel functions (SpMV, Mul, decode loops)"
}

// hotPathFormatPkgs are packages whose mere presence in a kernel means
// formatting or I/O on the hot path.
var hotPathFormatPkgs = map[string]bool{
	"fmt": true, "log": true, "log/slog": true, "os": true,
}

func (r hotPathRule) Check(m *Module, pkg *Package, report func(pos token.Pos, format string, args ...any)) {
	if !isLibraryPkg(pkg) {
		return
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !IsHotFunc(fd.Name.Name) {
				continue
			}
			r.checkBody(pkg, fd, report)
		}
	}
}

func (r hotPathRule) checkBody(pkg *Package, fd *ast.FuncDecl, report func(pos token.Pos, format string, args ...any)) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok {
			if b, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
				switch b.Name() {
				case "panic":
					// Cold trap path: skip the whole argument subtree, so
					// panic(core.Corruptf(...)) stays legal in kernels.
					return false
				case "print", "println":
					report(call.Pos(), "%s in hot kernel %s", b.Name(), fd.Name.Name)
					return false
				}
				return true // other builtins (len, cap, append, ...) are fine
			}
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok {
				if pn, ok := pkg.Info.Uses[x].(*types.PkgName); ok && hotPathFormatPkgs[pn.Imported().Path()] {
					report(call.Pos(), "call to %s.%s in hot kernel %s", pn.Imported().Path(), sel.Sel.Name, fd.Name.Name)
					return true
				}
			}
		}
		r.checkBoxing(pkg, fd, call, report)
		return true
	}
	ast.Inspect(fd.Body, walk)
}

// checkBoxing reports concrete values passed to interface-typed
// parameters (including variadic interface parameters and conversions
// to interface types), each of which allocates.
func (r hotPathRule) checkBoxing(pkg *Package, fd *ast.FuncDecl, call *ast.CallExpr, report func(pos token.Pos, format string, args ...any)) {
	funTV, ok := pkg.Info.Types[call.Fun]
	if !ok {
		return
	}
	if funTV.IsType() {
		// Conversion T(x): boxing when T is an interface and x is not.
		if isInterface(funTV.Type) && len(call.Args) == 1 && isConcrete(pkg.Info.Types[call.Args[0]].Type) {
			report(call.Pos(), "conversion boxes %s into %s in hot kernel %s",
				types.TypeString(pkg.Info.Types[call.Args[0]].Type, types.RelativeTo(pkg.Types)),
				types.TypeString(funTV.Type, types.RelativeTo(pkg.Types)), fd.Name.Name)
		}
		return
	}
	sig, ok := funTV.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var paramType types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing
			}
			paramType = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			paramType = params.At(i).Type()
		default:
			continue
		}
		if !isInterface(paramType) {
			continue
		}
		argType := pkg.Info.Types[arg].Type
		if isConcrete(argType) {
			report(arg.Pos(), "argument boxes %s into %s in hot kernel %s",
				types.TypeString(argType, types.RelativeTo(pkg.Types)),
				types.TypeString(paramType, types.RelativeTo(pkg.Types)), fd.Name.Name)
		}
	}
}

// isConcrete reports whether t is a concrete (non-interface, non-nil)
// type whose assignment to an interface boxes. A type parameter counts
// as concrete: any(v) of a V-typed v boxes.
func isConcrete(t types.Type) bool {
	if t == nil {
		return false
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	return !isInterface(t)
}

// isInterface reports whether t is an interface type. A type parameter
// is not one, though go/types calls it so (its underlying type is its
// constraint): V(1) converts to the type argument, a concrete type.
func isInterface(t types.Type) bool {
	if _, ok := t.(*types.TypeParam); ok {
		return false
	}
	return types.IsInterface(t)
}
