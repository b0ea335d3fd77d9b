// Package csr implements the Compressed Sparse Row storage format with
// 32-bit indices and 64-bit values — the baseline of the paper's
// evaluation (§II-B, Fig 1) — together with a 16-bit-index variant
// (CSR16, the index-reduction optimization of Williams et al. that the
// paper's §III-D mentions).
//
// Both formats provide the serial SpMV kernel with a register
// accumulator (the paper's optimized CSR code), nnz-balanced row
// partitioning for the multithreaded runtime, and memory-access tracing
// for the machine simulator.
package csr

import (
	"fmt"
	"math"

	"spmv/internal/core"
	"spmv/internal/partition"
)

// Matrix is a sparse matrix in CSR form: Values holds the non-zeros in
// row-major order, ColInd the column of each non-zero, and RowPtr the
// offset of each row's first non-zero (len rows+1).
type Matrix struct {
	rows, cols int
	RowPtr     []int32
	ColInd     []int32
	Values     []float64

	// Virtual base addresses for tracing; zero until Place is called.
	rowPtrBase, colIndBase, valBase uint64
}

var (
	_ core.Format   = (*Matrix)(nil)
	_ core.Splitter = (*Matrix)(nil)
	_ core.SpMVAdd  = (*Matrix)(nil)
	_ core.Placer   = (*Matrix)(nil)
)

// FromCOO builds a CSR matrix from a triplet matrix. The COO is
// finalized in place if it is not already. It returns an error if the
// non-zero count exceeds the 32-bit index range.
func FromCOO(c *core.COO) (*Matrix, error) {
	c.Finalize()
	if c.Len() > math.MaxInt32 {
		return nil, fmt.Errorf("csr: %d non-zeros exceed 32-bit index range", c.Len())
	}
	m := &Matrix{
		rows:   c.Rows(),
		cols:   c.Cols(),
		RowPtr: make([]int32, c.Rows()+1),
		ColInd: make([]int32, c.Len()),
		Values: make([]float64, c.Len()),
	}
	for k := 0; k < c.Len(); k++ {
		i, j, v := c.At(k)
		m.RowPtr[i+1]++
		m.ColInd[k] = int32(j)
		m.Values[k] = v
	}
	for i := 0; i < c.Rows(); i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m, nil
}

// Name implements core.Format.
func (m *Matrix) Name() string { return "csr" }

// Rows implements core.Format.
func (m *Matrix) Rows() int { return m.rows }

// Cols implements core.Format.
func (m *Matrix) Cols() int { return m.cols }

// NNZ implements core.Format.
func (m *Matrix) NNZ() int { return len(m.Values) }

// SizeBytes implements core.Format: values + col_ind + row_ptr.
func (m *Matrix) SizeBytes() int64 {
	return core.CSRBytes(m.rows, m.NNZ(), core.IdxSize, core.ValSize)
}

// SpMV computes y = A*x with the paper's optimized kernel: the row sum
// is kept in a register and written to y[i] once per row.
func (m *Matrix) SpMV(y, x []float64) {
	spmvRange(y, x, m.RowPtr, m.ColInd, m.Values, 0, m.rows, false)
}

// SpMVAdd computes y += A*x.
func (m *Matrix) SpMVAdd(y, x []float64) {
	spmvRange(y, x, m.RowPtr, m.ColInd, m.Values, 0, m.rows, true)
}

// errRowPtr is the trap the row walk panics with when a row pointer
// runs backwards or past its chunk's non-zeros. It is built once, so
// the kernel allocates nothing to raise it.
var errRowPtr = core.Corruptf("csr: row pointer decreases or runs past the non-zeros")

// spmvRange multiplies rows [lo, hi) with one non-zero cursor for the
// whole range: the range's values and column indices are sliced once,
// and k advances to each row's end. k < end <= len(vals) lets the
// compiler drop the per-nnz checks on vals and cols, leaving only the
// data-dependent gather x[cols[k]]. Each row is summed left to right
// from +0 and stored once, so only y[lo:hi] is written.
//
// The type parameters give csr16 its 16-bit columns and csr32 its
// float32 values, which float64() widens before the multiply (a no-op
// for float64); each instantiation compiles to the same loop as a
// hand-written one.
func spmvRange[C int32 | uint16, V float64 | float32](y, x []float64, rowPtr []int32, colInd []C, values []V, lo, hi int, add bool) {
	ends := rowPtr[lo+1 : hi+1]
	base, top := int(rowPtr[lo]), int(rowPtr[hi])
	if base < 0 || top < base || top > len(values) || top > len(colInd) {
		panic(errRowPtr)
	}
	vals := values[base:top]
	cols := colInd[base:top]
	cols = cols[:len(vals)]
	y = y[lo:hi]
	y = y[:len(ends)]
	k := uint(0)
	for i, e := range ends {
		end := uint(int(e) - base)
		if end < k || end > uint(len(vals)) {
			panic(errRowPtr)
		}
		sum := 0.0
		for ; k < end; k++ {
			sum += float64(vals[k]) * x[cols[k]]
		}
		if add {
			y[i] += sum
		} else {
			y[i] = sum
		}
	}
}

// Split implements core.Splitter with nnz-balanced row partitioning.
func (m *Matrix) Split(n int) []core.Chunk {
	bounds := partition.SplitRowsByNNZ(m.RowPtr, n)
	var chunks []core.Chunk
	for i := 0; i+1 < len(bounds); i++ {
		if bounds[i] == bounds[i+1] {
			continue
		}
		chunks = append(chunks, &chunk{m: m, lo: bounds[i], hi: bounds[i+1]})
	}
	return chunks
}

// RowNNZ returns the number of non-zeros in row i.
func (m *Matrix) RowNNZ(i int) int { return int(m.RowPtr[i+1] - m.RowPtr[i]) }

// SpMVT computes y = A^T * x (y has Cols() elements, x has Rows()),
// by scattering each row's contribution — the product BiCG-type
// methods and normal-equation solvers need without building an
// explicit transpose.
func (m *Matrix) SpMVT(y, x []float64) {
	for j := 0; j < m.cols; j++ {
		y[j] = 0
	}
	for i := 0; i < m.rows; i++ {
		xi := x[i]
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			y[m.ColInd[k]] += m.Values[k] * xi
		}
	}
}

// SpMM computes k simultaneous products Y = A*X, where X packs k
// right-hand vectors interleaved (X[j*k+c] is element j of vector c)
// and Y likewise. Blocking the vectors amortizes every matrix byte over
// k FLOP pairs, raising arithmetic intensity — the same
// bandwidth-relief goal as the paper's compression, achieved on the
// workload side when the application has multiple vectors. SpMM is the
// historical name of SpMVBatch (core.BatchFormat); both run the same
// fused kernel.
func (m *Matrix) SpMM(y, x []float64, k int) {
	m.SpMVBatch(y, x, k)
}

// ForEach calls fn for every non-zero in row-major order.
func (m *Matrix) ForEach(fn func(i, j int, v float64)) {
	for i := 0; i < m.rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			fn(i, int(m.ColInd[k]), m.Values[k])
		}
	}
}

// Triplets converts back to finalized COO form: the inverse of FromCOO.
func (m *Matrix) Triplets() *core.COO {
	c := core.NewCOO(m.rows, m.cols)
	m.ForEach(func(i, j int, v float64) { c.Add(i, j, v) })
	c.Finalize()
	return c
}

// chunk is a contiguous row range of a CSR matrix.
type chunk struct {
	m      *Matrix
	lo, hi int
}

var _ core.Tracer = (*chunk)(nil)

func (c *chunk) RowRange() (int, int) { return c.lo, c.hi }
func (c *chunk) NNZ() int             { return int(c.m.RowPtr[c.hi] - c.m.RowPtr[c.lo]) }
func (c *chunk) SpMV(y, x []float64) {
	spmvRange(y, x, c.m.RowPtr, c.m.ColInd, c.m.Values, c.lo, c.hi, false)
}
