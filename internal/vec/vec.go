// Package vec provides the dense vector kernels the iterative solvers
// are built from: dot products, axpy updates and norms. They are the
// non-SpMV remainder of a Krylov iteration — cheap relative to the
// matrix product, but on the hot path of every solver in the library.
package vec

import "math"

// Dot returns the inner product of a and b (shorter length governs).
func Dot(a, b []float64) float64 {
	n := min(len(a), len(b))
	a, b = a[:n], b[:n]
	// Unrolled accumulation: four independent partial sums let the FPU
	// pipeline overlap the adds. Stepping by reslicing rather than by
	// index leaves the loop free of bounds checks.
	var s0, s1, s2, s3 float64
	for len(a) >= 4 && len(b) >= 4 {
		s0 += a[0] * b[0]
		s1 += a[1] * b[1]
		s2 += a[2] * b[2]
		s3 += a[3] * b[3]
		a, b = a[4:], b[4:]
	}
	s := s0 + s1 + s2 + s3
	b = b[:len(a)]
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Axpy computes y += alpha*x element-wise.
func Axpy(alpha float64, x, y []float64) {
	n := len(y)
	if len(x) < n {
		n = len(x)
	}
	for i := 0; i < n; i++ {
		y[i] += alpha * x[i]
	}
}

// Norm2 returns the Euclidean norm of a.
func Norm2(a []float64) float64 { return math.Sqrt(Dot(a, a)) }

// Norm1 returns the L1 norm of a.
func Norm1(a []float64) float64 {
	s := 0.0
	for _, v := range a {
		s += math.Abs(v)
	}
	return s
}

// NormInf returns the maximum absolute element of a (0 for empty).
func NormInf(a []float64) float64 {
	m := 0.0
	for _, v := range a {
		if av := math.Abs(v); av > m {
			m = av
		}
	}
	return m
}

// Scale computes x *= alpha.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Sub computes dst = a - b element-wise.
func Sub(dst, a, b []float64) {
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// Zero clears x.
func Zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}
