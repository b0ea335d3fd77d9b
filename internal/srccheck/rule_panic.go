package srccheck

import (
	"go/ast"
	"go/token"
	"go/types"
)

// panicRule flags panic calls in library code (the root package and
// internal/...). PR 1's panic-recovering executors are a safety net for
// corrupt-data faults, not a licensed control-flow mechanism, so new
// panics need a typed-error argument: panic(core.Corruptf(...)) is the
// documented corrupt-stream trap, recovered into an error that
// satisfies errors.Is(err, core.ErrCorrupt), and panic(core.Usagef(...))
// the API-misuse assertion.
type panicRule struct{}

func (panicRule) Name() string { return "panics" }
func (panicRule) Doc() string {
	return "no panic(...) in library code, except typed-error panics (panic of an error value)"
}

func (panicRule) Check(m *Module, pkg *Package, report func(pos token.Pos, format string, args ...any)) {
	if !isLibraryPkg(pkg) {
		return
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			ident, ok := call.Fun.(*ast.Ident)
			if !ok || ident.Name != "panic" {
				return true
			}
			if _, isBuiltin := pkg.Info.Uses[ident].(*types.Builtin); !isBuiltin {
				return true // a shadowing local named panic
			}
			if len(call.Args) == 1 && isErrorType(pkg.Info.Types[call.Args[0]].Type) {
				return true // typed-error panic: the sanctioned trap form
			}
			report(call.Pos(), "panic in library code; return an error or panic a typed error (core.Corruptf et al.)")
			return true
		})
	}
}

// isErrorType reports whether t implements the error interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorInterface) ||
		types.Implements(types.NewPointer(t), errorInterface)
}

var errorInterface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
