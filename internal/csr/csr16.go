package csr

import (
	"fmt"
	"math"

	"spmv/internal/core"
	"spmv/internal/partition"
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
	c.Finalize()
	if c.Cols() > MaxCols16 {
		return nil, fmt.Errorf("csr: %d columns exceed 16-bit index range", c.Cols())
	}
	if c.Len() > math.MaxInt32 {
		return nil, fmt.Errorf("csr: %d non-zeros exceed 32-bit index range", c.Len())
	}
	m := &Matrix16{
		rows:   c.Rows(),
		cols:   c.Cols(),
		RowPtr: make([]int32, c.Rows()+1),
		ColInd: make([]uint16, c.Len()),
		Values: make([]float64, c.Len()),
	}
	for k := 0; k < c.Len(); k++ {
		i, j, v := c.At(k)
		m.RowPtr[i+1]++
		m.ColInd[k] = uint16(j)
		m.Values[k] = v
	}
	for i := 0; i < c.Rows(); i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
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
	spmvRange(y, x, m.RowPtr, m.ColInd, m.Values, 0, m.rows, false)
}

// SpMVAdd computes y += A*x.
func (m *Matrix16) SpMVAdd(y, x []float64) {
	spmvRange(y, x, m.RowPtr, m.ColInd, m.Values, 0, m.rows, true)
}

// Split implements core.Splitter with nnz-balanced row partitioning.
func (m *Matrix16) Split(n int) []core.Chunk {
	bounds := partition.SplitRowsByNNZ(m.RowPtr, n)
	var chunks []core.Chunk
	for i := 0; i+1 < len(bounds); i++ {
		if bounds[i] == bounds[i+1] {
			continue
		}
		chunks = append(chunks, &chunk16{m: m, lo: bounds[i], hi: bounds[i+1]})
	}
	return chunks
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
	spmvRange(y, x, c.m.RowPtr, c.m.ColInd, c.m.Values, c.lo, c.hi, false)
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
