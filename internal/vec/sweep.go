package vec

// Block is the granularity of the blocked sweeps: dot products are
// reduced as one partial per Block consecutive elements, summed in
// index order (SumBlocks), and a vector is split between workers on
// Block boundaries only (Split). The value of a reduction then depends
// on the vector alone — not on how many workers swept it, nor on
// whether a pool swept it at all.
const Block = 1024

// Blocks returns the number of blocks covering n elements; the last
// may be short.
func Blocks(n int) int { return (n + Block - 1) / Block }

// Split returns worker w's share of an n-vector divided among workers
// in whole blocks: elements [lo,hi) and the block partials
// [blo,bhi) that cover them. Shares are contiguous, disjoint, and
// empty for workers beyond the block count.
func Split(n, w, workers int) (lo, hi, blo, bhi int) {
	nb := Blocks(n)
	blo, bhi = nb*w/workers, nb*(w+1)/workers
	return blo * Block, min(bhi*Block, n), blo, bhi
}

// SumBlocks adds block partials in index order.
func SumBlocks(part []float64) float64 {
	s := 0.0
	for _, v := range part {
		s += v
	}
	return s
}

// DotBlocks stores the inner product of each block of a and b:
// part[k] = Dot(a[k*Block:(k+1)*Block], b[same]). len(part) must be
// Blocks(len(a)) and len(b) at least len(a).
func DotBlocks(part, a, b []float64) {
	b = b[:len(a)]
	for k := range part {
		n := min(Block, len(a))
		part[k] = Dot(a[:n], b[:n])
		a, b = a[n:], b[n:]
	}
}

// AxpyDotBlocks computes y += alpha*x and stores each block's y·y of
// the updated y in part — CG's residual update and its norm in one
// pass over x and y. Lengths as for DotBlocks (x, y for a, b). Within
// a block the squares accumulate in Dot's order.
func AxpyDotBlocks(part []float64, alpha float64, x, y []float64) {
	x = x[:len(y)]
	for k := range part {
		n := min(Block, len(y))
		part[k] = axpyDot(alpha, x[:n], y[:n])
		x, y = x[n:], y[n:]
	}
}

func axpyDot(alpha float64, x, y []float64) float64 {
	x = x[:len(y)]
	var s0, s1, s2, s3 float64
	for len(x) >= 4 && len(y) >= 4 {
		v0 := y[0] + alpha*x[0]
		v1 := y[1] + alpha*x[1]
		v2 := y[2] + alpha*x[2]
		v3 := y[3] + alpha*x[3]
		y[0], y[1], y[2], y[3] = v0, v1, v2, v3
		s0 += v0 * v0
		s1 += v1 * v1
		s2 += v2 * v2
		s3 += v3 * v3
		x, y = x[4:], y[4:]
	}
	s := s0 + s1 + s2 + s3
	x = x[:len(y)]
	for i, v := range y {
		v += alpha * x[i]
		y[i] = v
		s += v * v
	}
	return s
}

// AxpyXpby computes x += alpha*p and then p = z + beta*p — CG's
// solution and search-direction updates in one pass, reading the old p
// once for both. len(x) governs; p and z must be at least as long.
func AxpyXpby(alpha, beta float64, x, p, z []float64) {
	p, z = p[:len(x)], z[:len(x)]
	for i, pi := range p {
		x[i] += alpha * pi
		p[i] = z[i] + beta*pi
	}
}

// Hadamard computes z = d∘r element-wise (the Jacobi preconditioner
// with d = 1/diag(A)). len(z) governs.
func Hadamard(z, d, r []float64) {
	d, r = d[:len(z)], r[:len(z)]
	for i := range z {
		z[i] = d[i] * r[i]
	}
}
