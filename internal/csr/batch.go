package csr

import (
	"spmv/internal/core"
	"spmv/internal/csrvi"
)

// Batched SpMV (SpMM): Y = A*X over row-major n×k panels. Each loaded
// (column, value) pair, and under the dictionary codec each val_ind
// load and unique-table lookup, feeds k FMAs instead of one: the
// matrix-stream traffic and the indirection work per right-hand side
// fall by 1/k, the relief the compressed formats buy with decode work.

var (
	_ core.BatchFormat = (*Matrix)(nil)
	_ core.BatchChunk  = (*chunk)(nil)
)

// batchDecodeHook, when non-nil, receives the value-stream loads of one
// panel-walk call: the test hook behind the amortization claim, one load
// per non-zero, not per column. Nil outside tests.
var batchDecodeHook func(loads int)

// SpMVBatch implements core.BatchFormat. len(x) >= Cols()*k,
// len(y) >= Rows()*k; k = 1 is bitwise identical to SpMV.
func (m *Matrix) SpMVBatch(y, x []float64, k int) {
	m.spmv(y, x, m.RowPtr, 0, m.rows, k)
}

// SpMVBatch implements core.BatchChunk: only panel rows [lo, hi) are
// written, so disjoint chunks may run concurrently.
func (c *chunk) SpMVBatch(y, x []float64, k int) {
	c.m.spmv(y, x, c.m.RowPtr, c.lo, c.hi, k)
}

// spmvBatchRange is the fused panel walk over one value stream, for
// k >= 2 (k = 1 is the row walk, whose operation order is the
// bitwise-k=1 contract). It returns the number of value-stream loads
// performed: exactly the rows' nnz, since each load's resolved value
// feeds all k columns.
func spmvBatchRange[V csrvi.Value](y, x []float64, rowPtr, colInd []int32, values []V, unique []float64, lo, hi, k int) int {
	values = window(values, 0, len(values))
	loads := 0
	if k == 4 {
		// Fixed-width accumulators for the common case: four row sums
		// stay in registers, written once per row.
		for i := lo; i < hi; i++ {
			vals := values[rowPtr[i]:rowPtr[i+1]]
			cols := colInd[rowPtr[i]:rowPtr[i+1]]
			cols = cols[:len(vals)]
			var s0, s1, s2, s3 float64
			for p, id := range vals {
				v := csrvi.Load(id, unique)
				xr := x[int(cols[p])*4:]
				xr = xr[:4]
				s0 += v * xr[0]
				s1 += v * xr[1]
				s2 += v * xr[2]
				s3 += v * xr[3]
			}
			yr := y[i*4:]
			yr = yr[:4]
			yr[0], yr[1], yr[2], yr[3] = s0, s1, s2, s3
			loads += len(vals)
		}
		return loads
	}
	// The trap sits just before the generic loop: proving k > 0 there
	// keeps that loop's state in registers (DESIGN §19).
	if k <= 0 {
		panic(core.Usagef("csr: batch with non-positive vector count %d", k))
	}
	// Generic width: accumulate directly into the (zeroed) output row,
	// which the row's stores keep cache-resident.
	for i := lo; i < hi; i++ {
		vals := values[rowPtr[i]:rowPtr[i+1]]
		cols := colInd[rowPtr[i]:rowPtr[i+1]]
		cols = cols[:len(vals)]
		yr := y[i*k:]
		yr = yr[:k]
		for c := range yr {
			yr[c] = 0
		}
		for p, id := range vals {
			v := csrvi.Load(id, unique)
			xr := x[int(cols[p])*k:]
			xr = xr[:len(yr)]
			for c, xv := range xr {
				yr[c] += v * xv
			}
		}
		loads += len(vals)
	}
	return loads
}
