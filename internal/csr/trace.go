package csr

import "spmv/internal/core"

// Compute-cost model for traced kernels, in CPU cycles. One CSR
// iteration does an index load, a multiply and an add; the cost is
// attached to the x gather access since there is exactly one per
// non-zero. csr32 adds a float32->float64 convert and the csr-vi
// dictionary one indirection (load of val_ind, index into vals_unique)
// — the paper's storage-for-computation tradeoff made explicit.
const (
	csrCompPerNNZ = 3
	rowOverhead   = 2 // loop bookkeeping per row, attached to the row_ptr stream
)

// Place implements core.Placer: row_ptr, col_ind, then under csr-vi the
// val_ind stream (empty under the plain codec), then the values or the
// unique table.
func (m *Matrix) Place(a *core.Arena) {
	m.rowPtrBase = a.Alloc(int64(len(m.RowPtr)) * 4)
	m.colIndBase = a.Alloc(int64(len(m.ColInd)) * 4)
	if m.name == "csr-vi" {
		m.viBase = a.Alloc(m.ValIndBytes())
	}
	m.valBase = a.Alloc(m.valueBytes())
}

// TraceSpMV implements core.Tracer: it replays the memory reference
// stream of the chunk's SpMV kernel in program order. The sequential
// arrays (row_ptr, col_ind, the value stream, y) are coalesced to
// cache-line granularity; the x gathers are emitted per element. Under
// the dictionary codec the val_ind array is streamed and the
// vals_unique table is a gather — for applicable matrices it is tiny
// and lives in L1, which is exactly why the scheme wins.
func (c *chunk) TraceSpMV(xBase, yBase uint64, emit core.EmitFunc) {
	m := c.m
	if m.rowPtrBase == 0 {
		panic(core.Usagef("csr: TraceSpMV before Place"))
	}
	w := int64(m.IndexWidth())
	size, comp := int64(8), uint16(csrCompPerNNZ)
	switch {
	case m.Values32 != nil:
		size, comp = 4, csrCompPerNNZ+1
	case w != 0:
		comp = csrCompPerNNZ + 1
	}
	rp := core.NewStreamCursor(m.rowPtrBase)
	ci := core.NewStreamCursor(m.colIndBase)
	vi := core.NewStreamCursor(m.viBase)
	vs := core.NewStreamCursor(m.valBase)
	yw := core.NewStreamCursor(yBase)
	for i := c.lo; i < c.hi; i++ {
		rp.Touch(emit, int64(i)*4, 8, false, rowOverhead)
		for j := m.RowPtr[i]; j < m.RowPtr[i+1]; j++ {
			ci.Touch(emit, int64(j)*4, 4, false, 0)
			if w == 0 {
				vs.Touch(emit, int64(j)*size, int(size), false, 0)
			} else {
				vi.Touch(emit, int64(j)*w, int(w), false, 0)
				emit(core.Access{Addr: m.valBase + uint64(m.valueIndex(int(j)))*8, Size: 8})
			}
			emit(core.Access{Addr: xBase + uint64(m.ColInd[j])*8, Size: 8, Comp: comp})
		}
		yw.Touch(emit, int64(i)*8, 8, true, 0)
	}
}
