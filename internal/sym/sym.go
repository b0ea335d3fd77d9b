// Package sym implements symmetric CSR storage: only the diagonal and
// the strictly lower triangle are stored, halving both index and value
// data — the symmetry exploitation of Lee et al. that the paper's
// §III-C cites as the main prior work on value-data reduction.
//
// The SpMV kernel applies each stored off-diagonal element twice
// (y[i] += v*x[j] and y[j] += v*x[i]), so the kernel scatters into y.
// Serial execution is straightforward; the multithreaded version
// (parallel.SymExecutor) cuts the stored rows into scatter chunks
// (core.ScatterSplitter), gives each worker a private y and reduces, as
// §II-C prescribes for kernels whose writes overlap.
package sym

import (
	"fmt"
	"math"

	"spmv/internal/core"
	"spmv/internal/partition"
)

// Matrix is a symmetric sparse matrix storing its lower triangle.
type Matrix struct {
	n       int
	Diag    []float64
	RowPtr  []int32 // strictly-lower-triangle CSR
	ColInd  []int32
	Values  []float64
	nnzFull int // logical nnz of the full (expanded) matrix
}

var (
	_ core.Format          = (*Matrix)(nil)
	_ core.ScatterSplitter = (*Matrix)(nil)
)

// FromCOO builds symmetric storage from a finalized COO, verifying that
// the matrix is numerically symmetric (within tol, relative). It stores
// the lower triangle, then walks the upper entries (i, j) in row order,
// which meets each stored row j in column order, so one cursor a row
// finds every mirror (j, i) without a transposed copy of the COO.
func FromCOO(c *core.COO, tol float64) (*Matrix, error) {
	c.Finalize()
	if c.Rows() != c.Cols() {
		return nil, fmt.Errorf("sym: matrix not square (%dx%d)", c.Rows(), c.Cols())
	}
	if c.Len() > math.MaxInt32 {
		return nil, fmt.Errorf("sym: %d non-zeros exceed supported range", c.Len())
	}
	n := c.Rows()
	m := &Matrix{n: n, Diag: make([]float64, n), RowPtr: make([]int32, n+1), nnzFull: c.Len()}
	for k := 0; k < c.Len(); k++ {
		i, j, _ := c.At(k)
		if j < i {
			m.RowPtr[i+1]++
		}
	}
	for i := 0; i < n; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	lower := int(m.RowPtr[n])
	m.ColInd = make([]int32, lower)
	m.Values = make([]float64, lower)
	next := make([]int32, n)
	copy(next, m.RowPtr[:n])
	for k := 0; k < c.Len(); k++ {
		i, j, v := c.At(k)
		switch {
		case i == j:
			// A diagonal entry is its own mirror.
			if !within(v, v, tol) {
				return nil, fmt.Errorf("sym: values not symmetric at (%d,%d): %v vs %v", i, j, v, v)
			}
			m.Diag[i] = v
		case j < i:
			p := next[i]
			next[i]++
			m.ColInd[p] = int32(j)
			m.Values[p] = v
		}
	}
	copy(next, m.RowPtr[:n])
	for k := 0; k < c.Len(); k++ {
		i, j, v := c.At(k)
		if j <= i {
			continue
		}
		p := next[j]
		if p == m.RowPtr[j+1] || int(m.ColInd[p]) != i {
			return nil, fmt.Errorf("sym: pattern not symmetric at (%d,%d)", i, j)
		}
		if !within(v, m.Values[p], tol) {
			return nil, fmt.Errorf("sym: values not symmetric at (%d,%d): %v vs %v", i, j, v, m.Values[p])
		}
		next[j]++
	}
	for i := 0; i < n; i++ { // every stored entry was some upper entry's mirror
		if p := next[i]; p != m.RowPtr[i+1] {
			return nil, fmt.Errorf("sym: pattern not symmetric at (%d,%d)", i, m.ColInd[p])
		}
	}
	return m, nil
}

// within reports whether a and b agree within tol relative to the
// larger of the two, so the verdict does not depend on which triangle
// holds the larger value. A NaN on either side passes.
func within(a, b, tol float64) bool {
	return !(math.Abs(a-b) > tol*(1+math.Max(math.Abs(a), math.Abs(b))))
}

// Name implements core.Format.
func (m *Matrix) Name() string { return "sym-csr" }

// Rows implements core.Format.
func (m *Matrix) Rows() int { return m.n }

// Cols implements core.Format.
func (m *Matrix) Cols() int { return m.n }

// NNZ implements core.Format: the logical (full-matrix) count.
func (m *Matrix) NNZ() int { return m.nnzFull }

// Stored returns the stored element count (diagonal + lower triangle).
func (m *Matrix) Stored() int { return m.n + len(m.Values) }

// SizeBytes implements core.Format: half the off-diagonal data of CSR.
func (m *Matrix) SizeBytes() int64 {
	return int64(m.n)*core.ValSize + // diagonal
		int64(len(m.Values))*(core.IdxSize+core.ValSize) +
		int64(m.n+1)*core.IdxSize
}

// SpMV computes y = A*x.
func (m *Matrix) SpMV(y, x []float64) {
	for i := 0; i < m.n; i++ {
		y[i] = 0
	}
	m.addRange(y, x, 0, m.n)
}

// addRange applies rows [lo, hi) of the stored triangle, scattering the
// transposed contributions into y[j] for j < lo as well.
func (m *Matrix) addRange(y, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		sum := m.Diag[i] * x[i]
		xi := x[i]
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.ColInd[k]
			v := m.Values[k]
			sum += v * x[j]
			y[j] += v * xi
		}
		y[i] += sum
	}
}

// SplitScatter implements core.ScatterSplitter: nnz-balanced ranges of
// stored-triangle rows, each of which scatters its transposed elements
// into y[j] for j below its rows.
func (m *Matrix) SplitScatter(n int) []core.ScatterChunk {
	prefix := make([]int64, m.n+1)
	for i := 0; i < m.n; i++ {
		// Weight: stored elements (each does two FMAs) plus diagonal.
		prefix[i+1] = prefix[i] + int64(m.RowPtr[i+1]-m.RowPtr[i]) + 1
	}
	bounds := partition.SplitPrefix(prefix, n)
	var chunks []core.ScatterChunk
	for i := 0; i+1 < len(bounds); i++ {
		if bounds[i] == bounds[i+1] {
			continue
		}
		chunks = append(chunks, &chunk{m: m, lo: bounds[i], hi: bounds[i+1]})
	}
	return chunks
}

type chunk struct {
	m      *Matrix
	lo, hi int
}

func (c *chunk) RowRange() (int, int) { return c.lo, c.hi }
func (c *chunk) NNZ() int {
	return int(c.m.RowPtr[c.hi]-c.m.RowPtr[c.lo])*2 + (c.hi - c.lo)
}
func (c *chunk) SpMVAdd(y, x []float64) { c.m.addRange(y, x, c.lo, c.hi) }
