package csrvi

import "spmv/internal/core"

// Batched SpMV (SpMM) for CSR-VI: one val_ind load and one unique-table
// lookup serve k FMAs. The value stream is the part of the working set
// CSR-VI compresses, and batching amortizes the residual stream — and
// the indirection work itself — over every panel column at once.

var (
	_ core.BatchFormat = (*Matrix)(nil)
	_ core.BatchChunk  = (*chunk)(nil)
)

// batchDecodeHook, when non-nil, receives the number of val_ind loads
// one batch-kernel call performed. It is the test hook behind the
// amortization claim: a k-column batch must load each value index once
// (loads == chunk nnz), not once per column. Nil outside tests; the
// kernel pays one nil check per call.
var batchDecodeHook func(loads int)

// SpMVBatch implements core.BatchFormat. len(x) >= Cols()*k,
// len(y) >= Rows()*k; k = 1 is bitwise identical to SpMV.
func (m *Matrix) SpMVBatch(y, x []float64, k int) {
	m.spmvBatchRange(y, x, 0, m.rows, k)
}

// SpMVBatch implements core.BatchChunk.
func (c *chunk) SpMVBatch(y, x []float64, k int) {
	c.m.spmvBatchRange(y, x, c.lo, c.hi, k)
}

func (m *Matrix) spmvBatchRange(y, x []float64, lo, hi, k int) {
	switch {
	case k == 1:
		// The panel degenerates to the vector; the scalar kernel's
		// operation order is the bitwise-k=1 contract.
		m.spmvRange(y, x, lo, hi)
		return
	case k <= 0:
		panic(core.Usagef("csrvi: batch with non-positive vector count %d", k))
	}
	// One monomorphic instantiation per value codec, as in spmvRange.
	var loads int
	switch {
	case m.VI8 != nil:
		loads = spmvBatchVI(y, x, m.RowPtr, m.ColInd, m.VI8, m.Unique, lo, hi, k)
	case m.VI16 != nil:
		loads = spmvBatchVI(y, x, m.RowPtr, m.ColInd, m.VI16, m.Unique, lo, hi, k)
	case m.VI32 != nil:
		loads = spmvBatchVI(y, x, m.RowPtr, m.ColInd, m.VI32, m.Unique, lo, hi, k)
	default:
		loads = spmvBatchVI(y, x, m.RowPtr, m.ColInd, m.Unique, nil, lo, hi, k)
	}
	if batchDecodeHook != nil {
		batchDecodeHook(loads)
	}
}

// spmvBatchVI is the fused batch kernel over one value codec. It
// returns the number of value-stream loads performed (exactly the
// chunk's nnz: each load's resolved value feeds all k columns).
func spmvBatchVI[V Value](y, x []float64, rowPtr, colInd []int32, vals []V, unique []float64, lo, hi, k int) int {
	vals = window(vals, 0, len(vals))
	loads := 0
	if k == 4 {
		for i := lo; i < hi; i++ {
			vi := vals[rowPtr[i]:rowPtr[i+1]]
			cols := colInd[rowPtr[i]:rowPtr[i+1]]
			cols = cols[:len(vi)]
			var s0, s1, s2, s3 float64
			for p, id := range vi {
				v := Load(id, unique)
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
			loads += len(vi)
		}
		return loads
	}
	for i := lo; i < hi; i++ {
		vi := vals[rowPtr[i]:rowPtr[i+1]]
		cols := colInd[rowPtr[i]:rowPtr[i+1]]
		cols = cols[:len(vi)]
		yr := y[i*k:]
		yr = yr[:k]
		for c := range yr {
			yr[c] = 0
		}
		for p, id := range vi {
			v := Load(id, unique)
			xr := x[int(cols[p])*k:]
			xr = xr[:len(yr)]
			for c, xv := range xr {
				yr[c] += v * xv
			}
		}
		loads += len(vi)
	}
	return loads
}
