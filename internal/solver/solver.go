// Package solver implements the iterative Krylov solvers that motivate
// the paper (§I): Conjugate Gradient for symmetric positive definite
// systems and restarted GMRES for general systems, both built solely on
// the y = A*x operation, so any storage format (CSR, CSR-DU, CSR-VI,
// ...) and any executor (serial or multithreaded) can drive them. SpMV
// dominates the runtime of these solvers, which is why the paper's
// working-set compression translates directly into solver throughput.
package solver

import (
	"fmt"
	"math"

	"spmv/internal/core"
	"spmv/internal/vec"
)

// Operator is a square linear operator y = A*x. Mul reports failures —
// short vectors, corrupt compressed streams caught by an executor —
// as errors, which the solvers propagate instead of crashing mid-solve.
type Operator struct {
	N   int
	Mul func(y, x []float64) error
	// Pool, when non-nil, lends the workers behind Mul to the CG family's
	// vector sweeps (FromRunner fills it); without one they run inline.
	Pool Pool
}

// Pool is a set of persistent workers: Each runs fn(worker, workers) on
// every worker and waits for all of them (parallel.Executor has it).
type Pool interface {
	Each(fn func(worker, workers int)) error
}

// FromFormat wraps a square Format as an Operator. The multiply runs
// through core.SafeSpMV, so operand lengths are validated and kernel
// panics on corrupt streams surface as solver errors.
func FromFormat(f core.Format) (Operator, error) {
	if f.Rows() != f.Cols() {
		return Operator{}, fmt.Errorf("solver: operator must be square, got %dx%d", f.Rows(), f.Cols())
	}
	return Operator{N: f.Rows(), Mul: func(y, x []float64) error {
		return core.SafeSpMV(f, y, x)
	}}, nil
}

// Runner is the part of a multithreaded executor FromRunner needs.
type Runner interface {
	Run(y, x []float64) error
}

// FromRunner wraps a parallel executor as an n×n Operator; one that is
// also a Pool runs CG's vector sweeps on its workers, not only Mul.
func FromRunner(r Runner, n int) Operator {
	op := Operator{N: n, Mul: r.Run}
	op.Pool, _ = r.(Pool)
	return op
}

// Result reports the outcome of an iterative solve.
type Result struct {
	// Iterations counts the matrix-vector products of the iteration
	// proper; the one that forms the initial residual is not counted.
	Iterations int
	Residual   float64 // final ||b - A*x|| / ||b||
	Converged  bool
}

// CG solves A*x = b for symmetric positive definite A by the conjugate
// gradient method, overwriting x (which supplies the initial guess).
// It stops when the relative residual drops below tol or after maxIter
// iterations. The result is the same for any Pool size, or none.
func CG(a Operator, b, x []float64, tol float64, maxIter int) (Result, error) {
	if err := checkDims(a, b, x); err != nil {
		return Result{}, err
	}
	return cg("CG", a, nil, b, x, tol, maxIter)
}

// PCG is CG with a Jacobi (diagonal) preconditioner: invDiag holds
// 1/A[i][i]. It is the standard pairing for the stencil systems in the
// matrix suite.
func PCG(a Operator, invDiag, b, x []float64, tol float64, maxIter int) (Result, error) {
	if err := checkDims(a, b, x); err != nil {
		return Result{}, err
	}
	if len(invDiag) < a.N {
		return Result{}, fmt.Errorf("solver: invDiag length %d < n %d", len(invDiag), a.N)
	}
	var z, r []float64
	scale := func(w, workers int) {
		lo, hi, _, _ := vec.Split(a.N, w, workers)
		vec.Hadamard(z[lo:hi], invDiag[lo:hi], r[lo:hi])
	}
	jacobi := func(zz, rr []float64) error { z, r = zz, rr; return a.sweep(scale) }
	return cg("PCG", a, jacobi, b, x, tol, maxIter)
}

// sweep runs one pass of vector work on the operator's pool, or inline
// as the only worker; fn takes its share of the vectors from vec.Split.
func (a Operator) sweep(fn func(w, workers int)) error {
	if a.Pool == nil {
		fn(0, 1)
		return nil
	}
	if err := a.Pool.Each(fn); err != nil {
		return fmt.Errorf("solver: vector sweep: %w", err)
	}
	return nil
}

// cg is the one iteration behind CG, PCG and CGPrec; the caller has run
// checkDims. apply computes z = M⁻¹r; nil means z is r. Beside the
// multiply an iteration is three passes over the vectors (DESIGN.md
// §18) — p·Ap; r -= α·Ap with r·r; x += α·p with p = z + β·p — plus
// apply and r·z when preconditioned. Passes are split between workers
// on vec.Block boundaries and dot products reduced as per-block
// partials summed in index order, so every scalar, hence every iterate,
// is the same for any worker count.
func cg(name string, a Operator, apply func(z, r []float64) error, b, x []float64, tol float64, maxIter int) (Result, error) {
	n := a.N
	b, x = b[:n], x[:n]
	r := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)
	z := r
	if apply != nil {
		z = make([]float64, n)
	}
	part := make([]float64, vec.Blocks(n))

	// Sweep bodies are built once and read the step's scalars through
	// these variables: allocations do not grow with the iteration count.
	var alpha, beta float64
	var da, db []float64
	dotSweep := func(w, workers int) {
		lo, hi, blo, bhi := vec.Split(n, w, workers)
		vec.DotBlocks(part[blo:bhi], da[lo:hi], db[lo:hi])
	}
	blockDot := func(u, v []float64) (float64, error) {
		da, db = u, v
		err := a.sweep(dotSweep)
		return vec.SumBlocks(part), err
	}
	updateR := func(w, workers int) { // r -= α·Ap, part = r·r
		lo, hi, blo, bhi := vec.Split(n, w, workers)
		vec.AxpyDotBlocks(part[blo:bhi], -alpha, ap[lo:hi], r[lo:hi])
	}
	updateXP := func(w, workers int) { // x += α·p, p = z + β·p
		lo, hi, _, _ := vec.Split(n, w, workers)
		vec.AxpyXpby(alpha, beta, x[lo:hi], p[lo:hi], z[lo:hi])
	}
	// rzOf refreshes z = M⁻¹r and returns r·z, which is rr when z is r.
	rzOf := func(rr float64) (float64, error) {
		if apply == nil {
			return rr, nil
		}
		if err := apply(z, r); err != nil {
			return 0, err
		}
		return blockDot(r, z)
	}

	bb, err := blockDot(b, b)
	if err != nil {
		return Result{}, err
	}
	normB := math.Sqrt(bb)
	if core.IsZero(normB) {
		normB = 1
	}
	// r = b - A*x, through the residual update with α = 1.
	if err := a.Mul(ap, x); err != nil {
		return Result{}, fmt.Errorf("solver: SpMV: %w", err)
	}
	copy(r, b)
	alpha = 1
	if err := a.sweep(updateR); err != nil {
		return Result{}, err
	}
	rr := vec.SumBlocks(part)
	res := Result{Residual: math.Sqrt(rr) / normB}
	if res.Residual <= tol {
		res.Converged = true
		return res, nil
	}
	rz, err := rzOf(rr)
	if err != nil {
		return res, err
	}
	copy(p, z)
	for k := 0; k < maxIter; k++ {
		if err := a.Mul(ap, p); err != nil {
			return res, fmt.Errorf("solver: SpMV: %w", err)
		}
		pap, err := blockDot(p, ap)
		if err != nil {
			return res, err
		}
		if !(pap > 0) { // negated: NaN is a breakdown too, as is rr = NaN or +Inf below
			return res, fmt.Errorf("solver: %s breakdown: p'Ap = %v (matrix not SPD?)", name, pap)
		}
		alpha = rz / pap
		if err := a.sweep(updateR); err != nil {
			return res, err
		}
		if rr = vec.SumBlocks(part); !(rr <= math.MaxFloat64) {
			return res, fmt.Errorf("solver: %s breakdown: r'r = %v", name, rr)
		}
		res.Iterations = k + 1
		res.Residual = math.Sqrt(rr) / normB
		if res.Residual <= tol {
			// Only the x half of the last sweep matters now.
			res.Converged = true
			return res, a.sweep(updateXP)
		}
		rzNew, err := rzOf(rr)
		if err != nil {
			return res, err
		}
		beta, rz = rzNew/rz, rzNew
		if err := a.sweep(updateXP); err != nil {
			return res, err
		}
	}
	return res, nil
}

// InvDiag extracts 1/diagonal from a finalized COO for PCG. Zero
// diagonal entries yield an error.
func InvDiag(c *core.COO) ([]float64, error) {
	if c.Rows() != c.Cols() {
		return nil, fmt.Errorf("solver: matrix not square")
	}
	d := make([]float64, c.Rows())
	for k := 0; k < c.Len(); k++ {
		i, j, v := c.At(k)
		if i == j {
			d[i] += v
		}
	}
	for i, v := range d {
		if core.IsZero(v) {
			return nil, fmt.Errorf("solver: zero diagonal at row %d", i)
		}
		d[i] = 1 / v
	}
	return d, nil
}

func checkDims(a Operator, b, x []float64) error {
	if a.Mul == nil || a.N <= 0 {
		return fmt.Errorf("solver: invalid operator")
	}
	if len(b) < a.N || len(x) < a.N {
		return fmt.Errorf("solver: vector lengths %d/%d < n %d", len(b), len(x), a.N)
	}
	return nil
}

// Aliases for the internal/vec kernels GMRES, BiCGSTAB and Refine use.
func dot(a, b []float64) float64         { return vec.Dot(a, b) }
func norm(a []float64) float64           { return vec.Norm2(a) }
func axpy(alpha float64, x, y []float64) { vec.Axpy(alpha, x, y) }
