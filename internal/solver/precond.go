package solver

import "fmt"

// Preconditioner applies z = M^{-1} r.
type Preconditioner interface {
	Apply(z, r []float64)
}

// CGPrec is preconditioned conjugate gradients with a general
// (symmetric positive definite) preconditioner. PCG's Jacobi variant is
// the special case M = diag(A).
func CGPrec(a Operator, m Preconditioner, b, x []float64, tol float64, maxIter int) (Result, error) {
	if err := checkDims(a, b, x); err != nil {
		return Result{}, err
	}
	if m == nil {
		return Result{}, fmt.Errorf("solver: nil preconditioner")
	}
	apply := func(z, r []float64) error { m.Apply(z, r); return nil }
	return cg("CGPrec", a, apply, b, x, tol, maxIter)
}

// RightPreconditioned wraps a as A·M^{-1} for right-preconditioned
// GMRES/BiCGSTAB: solve the returned operator for u, then call finish
// on u to recover x = M^{-1} u. Right preconditioning keeps the
// residual of the preconditioned system equal to the true residual, so
// the solvers' stopping tests remain meaningful.
func RightPreconditioned(a Operator, m Preconditioner) (Operator, func(u []float64) []float64) {
	tmp := make([]float64, a.N)
	op := Operator{
		N: a.N,
		Mul: func(y, u []float64) error {
			m.Apply(tmp, u)
			return a.Mul(y, tmp)
		},
	}
	finish := func(u []float64) []float64 {
		x := make([]float64, a.N)
		m.Apply(x, u)
		return x
	}
	return op, finish
}
