package csr

import (
	"fmt"
	"math"

	"spmv/internal/core"
	"spmv/internal/partition"
)

// Matrix32 is CSR with single-precision values: the lower-precision
// value representation of Keyes that the paper's §III-C cites. It
// halves the value stream (4 bytes instead of 8 per non-zero) at the
// cost of rounding every coefficient to float32; pair it with
// solver.Refine to recover double-precision solutions (Langou et al.'s
// mixed-precision scheme, also cited in §III-C).
type Matrix32 struct {
	rows, cols int
	RowPtr     []int32
	ColInd     []int32
	Values     []float32

	rowPtrBase, colIndBase, valBase uint64
}

var (
	_ core.Format   = (*Matrix32)(nil)
	_ core.Splitter = (*Matrix32)(nil)
	_ core.Placer   = (*Matrix32)(nil)
)

// From32 builds a single-precision-value CSR matrix; values are rounded
// to float32.
func From32(c *core.COO) (*Matrix32, error) {
	c.Finalize()
	if c.Len() > math.MaxInt32 {
		return nil, fmt.Errorf("csr: %d non-zeros exceed 32-bit index range", c.Len())
	}
	m := &Matrix32{
		rows:   c.Rows(),
		cols:   c.Cols(),
		RowPtr: make([]int32, c.Rows()+1),
		ColInd: make([]int32, c.Len()),
		Values: make([]float32, c.Len()),
	}
	for k := 0; k < c.Len(); k++ {
		i, j, v := c.At(k)
		m.RowPtr[i+1]++
		m.ColInd[k] = int32(j)
		m.Values[k] = float32(v)
	}
	for i := 0; i < c.Rows(); i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m, nil
}

// Name implements core.Format.
func (m *Matrix32) Name() string { return "csr32" }

// Rows implements core.Format.
func (m *Matrix32) Rows() int { return m.rows }

// Cols implements core.Format.
func (m *Matrix32) Cols() int { return m.cols }

// NNZ implements core.Format.
func (m *Matrix32) NNZ() int { return len(m.Values) }

// SizeBytes implements core.Format: 4-byte values.
func (m *Matrix32) SizeBytes() int64 {
	return int64(m.NNZ())*(core.IdxSize+4) + int64(m.rows+1)*core.IdxSize
}

// SpMV computes y = A*x; the accumulation runs in double precision, as
// in the mixed-precision kernels the paper cites.
func (m *Matrix32) SpMV(y, x []float64) {
	spmvRange(y, x, m.RowPtr, m.ColInd, m.Values, 0, m.rows, false)
}

// Split implements core.Splitter.
func (m *Matrix32) Split(n int) []core.Chunk {
	bounds := partition.SplitRowsByNNZ(m.RowPtr, n)
	var chunks []core.Chunk
	for i := 0; i+1 < len(bounds); i++ {
		if bounds[i] == bounds[i+1] {
			continue
		}
		chunks = append(chunks, &chunk32{m: m, lo: bounds[i], hi: bounds[i+1]})
	}
	return chunks
}

// Place implements core.Placer.
func (m *Matrix32) Place(a *core.Arena) {
	m.rowPtrBase = a.Alloc(int64(len(m.RowPtr)) * 4)
	m.colIndBase = a.Alloc(int64(len(m.ColInd)) * 4)
	m.valBase = a.Alloc(int64(len(m.Values)) * 4)
}

type chunk32 struct {
	m      *Matrix32
	lo, hi int
}

var _ core.Tracer = (*chunk32)(nil)

func (c *chunk32) RowRange() (int, int) { return c.lo, c.hi }
func (c *chunk32) NNZ() int             { return int(c.m.RowPtr[c.hi] - c.m.RowPtr[c.lo]) }
func (c *chunk32) SpMV(y, x []float64) {
	spmvRange(y, x, c.m.RowPtr, c.m.ColInd, c.m.Values, c.lo, c.hi, false)
}

// TraceSpMV implements core.Tracer: like CSR but with a 4-byte value
// stream.
func (c *chunk32) TraceSpMV(xBase, yBase uint64, emit core.EmitFunc) {
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
			ci.Touch(emit, int64(j)*4, 4, false, 0)
			vs.Touch(emit, int64(j)*4, 4, false, 0)
			emit(core.Access{
				Addr: xBase + uint64(m.ColInd[j])*8, Size: 8,
				Comp: csrCompPerNNZ + 1, // float32->float64 convert
			})
		}
		yw.Touch(emit, int64(i)*8, 8, true, 0)
	}
}
