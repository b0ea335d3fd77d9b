package csr

import (
	"fmt"
	"slices"

	"spmv/internal/core"
)

// Matrix16 is CSR with 16-bit column indices: the simple index-reduction
// optimization applied by Williams et al. when the column count permits
// (paper §III-D). It halves the col_ind array relative to CSR and serves
// as an ablation point against CSR-DU's delta encoding.
type Matrix16 struct {
	rows, cols int
	RowPtr     []int32
	ColInd     []uint16
	Values     []float64

	rowPtrBase, colIndBase, valBase uint64
}

var (
	_ core.Format   = (*Matrix16)(nil)
	_ core.Splitter = (*Matrix16)(nil)
	_ core.SpMVAdd  = (*Matrix16)(nil)
	_ core.Placer   = (*Matrix16)(nil)
)

// MaxCols16 is the largest column count Matrix16 can index.
const MaxCols16 = 1 << 16

// From16 builds a 16-bit-index CSR matrix from a triplet matrix. It
// returns an error if the matrix has too many columns for 16-bit
// indices or too many non-zeros for 32-bit row pointers.
func From16(c *core.COO) (*Matrix16, error) {
	if c.Cols() > MaxCols16 {
		return nil, fmt.Errorf("csr: %d columns exceed 16-bit index range", c.Cols())
	}
	s, err := structure(c, "csr16")
	if err != nil {
		return nil, err
	}
	m := &Matrix16{rows: s.rows, cols: s.cols, RowPtr: s.RowPtr, ColInd: make([]uint16, len(s.ColInd)), Values: slices.Clone(c.V)}
	for k, j := range s.ColInd {
		m.ColInd[k] = uint16(j)
	}
	return m, nil
}

// FromRaw16 adopts stored row_ptr, col_ind and value streams as a
// csr16 matrix, without reordering anything, and returns it once
// Verify passes.
func FromRaw16(rowPtr []int32, colInd []uint16, values []float64, rows, cols int) (*Matrix16, error) {
	m := &Matrix16{rows: rows, cols: cols, RowPtr: rowPtr, ColInd: colInd, Values: values}
	if err := m.Verify(); err != nil {
		return nil, err
	}
	return m, nil
}

// Name implements core.Format.
func (m *Matrix16) Name() string { return "csr16" }

// Rows implements core.Format.
func (m *Matrix16) Rows() int { return m.rows }

// Cols implements core.Format.
func (m *Matrix16) Cols() int { return m.cols }

// NNZ implements core.Format.
func (m *Matrix16) NNZ() int { return len(m.Values) }

// SizeBytes implements core.Format: 2-byte column indices.
func (m *Matrix16) SizeBytes() int64 {
	return int64(m.NNZ())*(2+core.ValSize) + int64(m.rows+1)*core.IdxSize
}

// SpMV computes y = A*x.
func (m *Matrix16) SpMV(y, x []float64) {
	spmvRange(y, x, m.RowPtr, m.ColInd, m.Values, nil, 0, m.rows, false)
}

// SpMVAdd computes y += A*x.
func (m *Matrix16) SpMVAdd(y, x []float64) {
	spmvRange(y, x, m.RowPtr, m.ColInd, m.Values, nil, 0, m.rows, true)
}

// ForEach calls fn for every stored non-zero in row-major order.
func (m *Matrix16) ForEach(fn func(i, j int, v float64)) {
	for i := 0; i < m.rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			fn(i, int(m.ColInd[k]), m.Values[k])
		}
	}
}

// Split implements core.Splitter with nnz-balanced row partitioning.
func (m *Matrix16) Split(n int) []core.Chunk {
	return splitRows(m.RowPtr, n, func(lo, hi int) core.Chunk { return &chunk16{m: m, lo: lo, hi: hi} })
}

// Place implements core.Placer.
func (m *Matrix16) Place(a *core.Arena) {
	m.rowPtrBase = a.Alloc(int64(len(m.RowPtr)) * 4)
	m.colIndBase = a.Alloc(int64(len(m.ColInd)) * 2)
	m.valBase = a.Alloc(int64(len(m.Values)) * 8)
}

type chunk16 struct {
	m      *Matrix16
	lo, hi int
}

var _ core.Tracer = (*chunk16)(nil)

func (c *chunk16) RowRange() (int, int) { return c.lo, c.hi }
func (c *chunk16) NNZ() int             { return int(c.m.RowPtr[c.hi] - c.m.RowPtr[c.lo]) }
func (c *chunk16) SpMV(y, x []float64) {
	spmvRange(y, x, c.m.RowPtr, c.m.ColInd, c.m.Values, nil, c.lo, c.hi, false)
}

// TraceSpMV implements core.Tracer.
func (c *chunk16) TraceSpMV(xBase, yBase uint64, emit core.EmitFunc) {
	m := c.m
	if m.rowPtrBase == 0 {
		panic(core.Usagef("csr: TraceSpMV before Place"))
	}
	rp := core.NewStreamCursor(m.rowPtrBase)
	ci := core.NewStreamCursor(m.colIndBase)
	vs := core.NewStreamCursor(m.valBase)
	yw := core.NewStreamCursor(yBase)
	for i := c.lo; i < c.hi; i++ {
		rp.Touch(emit, int64(i)*4, 8, false, rowOverhead)
		for j := m.RowPtr[i]; j < m.RowPtr[i+1]; j++ {
			ci.Touch(emit, int64(j)*2, 2, false, 0)
			vs.Touch(emit, int64(j)*8, 8, false, 0)
			emit(core.Access{
				Addr: xBase + uint64(m.ColInd[j])*8, Size: 8,
				Comp: csrCompPerNNZ,
			})
		}
		yw.Touch(emit, int64(i)*8, 8, true, 0)
	}
}
