// Package csrvi implements CSR-VI (CSR Value Index), the value
// compression scheme of the paper's §V.
//
// The values array of CSR is replaced by two arrays: vals_unique, which
// holds each distinct numerical value once, and val_ind, which holds for
// every non-zero the index of its value in vals_unique. The index width
// is the narrowest of 1/2/4 bytes that addresses the unique count, so
// for matrices with few distinct values the 8-byte value stream shrinks
// to 1-2 bytes per non-zero — and values are 2/3 of the CSR working set.
//
// The scheme only pays off when the total-to-unique ratio (ttu) is
// high; the paper uses the empirical criterion ttu > 5 (§VI-E). TTU and
// Applicable expose that test. Construction is one O(nnz) pass through
// an open-addressing hash table (IndexValues), as in the paper.
package csrvi

import (
	"fmt"
	"math"

	"spmv/internal/core"
	"spmv/internal/partition"
)

// Matrix is a sparse matrix in CSR-VI form. Structure (RowPtr, ColInd)
// is standard CSR; values are indirected through Unique.
type Matrix struct {
	rows, cols int
	RowPtr     []int32
	ColInd     []int32
	Unique     []float64
	// Exactly one of VI8/VI16/VI32 is non-nil, chosen by len(Unique).
	VI8  []uint8
	VI16 []uint16
	VI32 []uint32

	rowPtrBase, colIndBase, viBase, uniqBase uint64
}

var (
	_ core.Format   = (*Matrix)(nil)
	_ core.Splitter = (*Matrix)(nil)
	_ core.Placer   = (*Matrix)(nil)
)

// FromCOO encodes a triplet matrix into CSR-VI. The COO is finalized in
// place if needed. Unique values are numbered in order of first
// appearance. Distinctness is on the bit pattern of the float64, so
// +0 and -0 are distinct (they multiply identically, so this is safe).
func FromCOO(c *core.COO) (*Matrix, error) {
	c.Finalize()
	if c.Len() > math.MaxInt32 {
		return nil, fmt.Errorf("csrvi: %d non-zeros exceed supported range", c.Len())
	}
	m := &Matrix{
		rows:   c.Rows(),
		cols:   c.Cols(),
		RowPtr: make([]int32, c.Rows()+1),
		ColInd: make([]int32, c.Len()),
	}
	copy(m.ColInd, c.J)
	for _, i := range c.I {
		m.RowPtr[i+1]++
	}
	for i := 0; i < c.Rows(); i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	m.Unique, m.VI8, m.VI16, m.VI32 = IndexValues(c.V)
	return m, nil
}

// TTU returns the total-to-unique values ratio of the encoded matrix.
func (m *Matrix) TTU() float64 {
	if len(m.Unique) == 0 {
		return 0
	}
	return float64(m.NNZ()) / float64(len(m.Unique))
}

// MinTTU is the paper's empirical applicability threshold (§VI-E).
const MinTTU = 5.0

// Applicable reports whether CSR-VI is worthwhile for the matrix per
// the paper's ttu > 5 criterion.
func (m *Matrix) Applicable() bool { return m.TTU() > MinTTU }

// IndexWidth returns the val_ind element width in bytes (1, 2 or 4).
func (m *Matrix) IndexWidth() int {
	switch {
	case m.VI8 != nil:
		return 1
	case m.VI16 != nil:
		return 2
	default:
		return 4
	}
}

// ValIndBytes returns the size of the val_ind stream: one IndexWidth
// entry per non-zero. This is the stream that replaces the 8-byte
// values of CSR — the quantity §V shrinks.
func (m *Matrix) ValIndBytes() int64 {
	return int64(m.NNZ()) * int64(m.IndexWidth())
}

// Name implements core.Format.
func (m *Matrix) Name() string { return "csr-vi" }

// Rows implements core.Format.
func (m *Matrix) Rows() int { return m.rows }

// Cols implements core.Format.
func (m *Matrix) Cols() int { return m.cols }

// NNZ implements core.Format.
func (m *Matrix) NNZ() int { return len(m.ColInd) }

// SizeBytes implements core.Format: row_ptr + col_ind + val_ind + unique.
func (m *Matrix) SizeBytes() int64 {
	return int64(m.rows+1)*core.IdxSize +
		int64(m.NNZ())*core.IdxSize +
		int64(m.NNZ())*int64(m.IndexWidth()) +
		int64(len(m.Unique))*core.ValSize
}

// SpMV computes y = A*x with the paper's Fig 5 kernel: the direct value
// access is replaced by vals_unique[val_ind[j]].
func (m *Matrix) SpMV(y, x []float64) { m.spmvRange(y, x, 0, m.rows) }

// spmvRange dispatches once per call to the walk for the matrix's
// val_ind width.
func (m *Matrix) spmvRange(y, x []float64, lo, hi int) {
	switch {
	case m.VI8 != nil:
		spmvVI(y, x, m.RowPtr, m.ColInd, m.VI8, m.Unique, lo, hi)
	case m.VI16 != nil:
		spmvVI(y, x, m.RowPtr, m.ColInd, m.VI16, m.Unique, lo, hi)
	default:
		spmvVI(y, x, m.RowPtr, m.ColInd, m.VI32, m.Unique, lo, hi)
	}
}

// errRowPtr is the trap the row walk panics with when a row pointer
// runs backwards or past its chunk's non-zeros. It is built once, so
// the kernel allocates nothing to raise it.
var errRowPtr = core.Corruptf("csrvi: row pointer decreases or runs past the non-zeros")

// spmvVI multiplies rows [lo, hi) with one non-zero cursor for the
// whole range, as csr's row walk does: the range's val_ind and column
// streams are sliced once and k advances to each row's end, so the
// per-nnz bounds checks are only the two data-dependent lookups,
// unique[id] and x[col]. Each row is summed left to right from +0 and
// stored once, so only y[lo:hi] is written.
func spmvVI[I uint8 | uint16 | uint32](y, x []float64, rowPtr, colInd []int32, valInd []I, unique []float64, lo, hi int) {
	ends := rowPtr[lo+1 : hi+1]
	base, top := int(rowPtr[lo]), int(rowPtr[hi])
	if base < 0 || top < base || top > len(valInd) || top > len(colInd) {
		panic(errRowPtr)
	}
	ids := valInd[base:top]
	cols := colInd[base:top]
	cols = cols[:len(ids)]
	y = y[lo:hi]
	y = y[:len(ends)]
	k := uint(0)
	for i, e := range ends {
		end := uint(int(e) - base)
		if end < k || end > uint(len(ids)) {
			panic(errRowPtr)
		}
		sum := 0.0
		for ; k < end; k++ {
			sum += unique[ids[k]] * x[cols[k]]
		}
		y[i] = sum
	}
}

// Value returns the k-th stored value (resolving the indirection).
func (m *Matrix) Value(k int) float64 {
	switch {
	case m.VI8 != nil:
		return m.Unique[m.VI8[k]]
	case m.VI16 != nil:
		return m.Unique[m.VI16[k]]
	default:
		return m.Unique[m.VI32[k]]
	}
}

// ForEach calls fn for every non-zero in row-major order.
func (m *Matrix) ForEach(fn func(i, j int, v float64)) {
	for i := 0; i < m.rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			fn(i, int(m.ColInd[k]), m.Value(int(k)))
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

// Split implements core.Splitter: the multithreaded version is derived
// from the serial one by giving each thread its first and last row
// (paper §V).
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

type chunk struct {
	m      *Matrix
	lo, hi int
}

var _ core.Tracer = (*chunk)(nil)

func (c *chunk) RowRange() (int, int) { return c.lo, c.hi }
func (c *chunk) NNZ() int             { return int(c.m.RowPtr[c.hi] - c.m.RowPtr[c.lo]) }
func (c *chunk) SpMV(y, x []float64)  { c.m.spmvRange(y, x, c.lo, c.hi) }
