package csrvi

import "spmv/internal/core"

// Compute-cost model: CSR-VI adds one indirection (load of val_ind,
// index into vals_unique) to the CSR iteration; the plain codec runs
// the CSR iteration itself.
const (
	viCompPerNNZ    = 4
	plainCompPerNNZ = 3
)

// Place implements core.Placer.
func (m *Matrix) Place(a *core.Arena) {
	m.rowPtrBase = a.Alloc(int64(len(m.RowPtr)) * 4)
	m.colIndBase = a.Alloc(int64(len(m.ColInd)) * 4)
	m.viBase = a.Alloc(int64(m.NNZ()) * int64(m.IndexWidth()))
	m.uniqBase = a.Alloc(int64(len(m.Unique)) * 8)
}

// TraceSpMV implements core.Tracer. The val_ind array is streamed; the
// vals_unique table is a gather — for applicable matrices it is tiny
// and lives in L1, which is exactly why the scheme wins. Under the
// plain codec the values are streamed, as in CSR.
func (c *chunk) TraceSpMV(xBase, yBase uint64, emit core.EmitFunc) {
	m := c.m
	if m.rowPtrBase == 0 {
		panic(core.Usagef("csrvi: TraceSpMV before Place"))
	}
	w := int64(m.IndexWidth())
	comp := uint16(viCompPerNNZ)
	if w == 0 {
		comp = plainCompPerNNZ
	}
	rp := core.NewStreamCursor(m.rowPtrBase)
	ci := core.NewStreamCursor(m.colIndBase)
	vi := core.NewStreamCursor(m.viBase)
	vs := core.NewStreamCursor(m.uniqBase)
	yw := core.NewStreamCursor(yBase)
	uniqueIdx := func(j int32) uint64 {
		switch {
		case m.VI8 != nil:
			return uint64(m.VI8[j])
		case m.VI16 != nil:
			return uint64(m.VI16[j])
		default:
			return uint64(m.VI32[j])
		}
	}
	for i := c.lo; i < c.hi; i++ {
		rp.Touch(emit, int64(i)*4, 8, false, 2)
		for j := m.RowPtr[i]; j < m.RowPtr[i+1]; j++ {
			ci.Touch(emit, int64(j)*4, 4, false, 0)
			if w == 0 {
				vs.Touch(emit, int64(j)*8, 8, false, 0)
			} else {
				vi.Touch(emit, int64(j)*w, int(w), false, 0)
				emit(core.Access{Addr: m.uniqBase + uniqueIdx(j)*8, Size: 8})
			}
			emit(core.Access{Addr: xBase + uint64(m.ColInd[j])*8, Size: 8, Comp: comp})
		}
		yw.Touch(emit, int64(i)*8, 8, true, 0)
	}
}
