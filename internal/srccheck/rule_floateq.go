package srccheck

import (
	"go/ast"
	"go/token"
	"go/types"
)

// floatEqRule flags == and != between floating-point operands. Exact
// float comparison is the business of the value-compression code —
// CSR-VI's unique-value table keys on exact bit patterns (the paper is
// explicit that distinctness is bitwise) — so internal/csrvi is
// exempt. Everywhere else an exact
// comparison is almost always a latent tolerance bug; compare against
// an epsilon, use math.Float64bits for intentional bit identity, or
// math.IsNaN for NaN tests.
type floatEqRule struct{}

func (floatEqRule) Name() string { return "floateq" }
func (floatEqRule) Doc() string {
	return "no float ==/!= comparisons outside the csrvi quantization code"
}

// floatEqExempt lists the module-relative package dirs whose job is
// exact-value quantization.
var floatEqExempt = []string{"internal/csrvi"}

func (floatEqRule) Check(m *Module, pkg *Package, report func(pos token.Pos, format string, args ...any)) {
	for _, exempt := range floatEqExempt {
		if pkg.RelPath == exempt {
			return
		}
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			bin, ok := n.(*ast.BinaryExpr)
			if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
				return true
			}
			if isFloat(pkg.Info.Types[bin.X].Type) && isFloat(pkg.Info.Types[bin.Y].Type) {
				report(bin.OpPos, "float %s comparison; use an epsilon, math.Float64bits, or math.IsNaN", bin.Op)
			}
			return true
		})
	}
}

// isFloat reports whether t's underlying type is a floating-point
// basic type.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
