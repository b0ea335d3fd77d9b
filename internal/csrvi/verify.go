package csrvi

import "spmv/internal/core"

// Verify implements core.Verifier: standard CSR structure checks on
// RowPtr/ColInd plus the value-codec invariants — under the dictionary
// codec exactly one val_ind array present, one entry per non-zero, and
// every entry inside vals_unique; under the plain codec (no val_ind)
// one stored value per non-zero. O(nnz).
func (m *Matrix) Verify() error {
	if m.rows < 0 || m.cols < 0 {
		return core.Shapef("csrvi: negative dimensions %dx%d", m.rows, m.cols)
	}
	if len(m.RowPtr) != m.rows+1 {
		return core.Shapef("csrvi: row pointer length %d, want %d", len(m.RowPtr), m.rows+1)
	}
	if err := core.CheckRowPtr(m.RowPtr, len(m.ColInd)); err != nil {
		return err
	}
	if err := core.CheckColInd(m.ColInd, m.cols); err != nil {
		return err
	}
	narrays := 0
	for _, present := range []bool{m.VI8 != nil, m.VI16 != nil, m.VI32 != nil} {
		if present {
			narrays++
		}
	}
	if narrays > 1 {
		return core.Corruptf("csrvi: %d val_ind arrays present, want at most one", narrays)
	}
	if narrays == 0 && len(m.Unique) != len(m.ColInd) {
		return core.Shapef("csrvi: plain codec stores %d values for %d non-zeros", len(m.Unique), len(m.ColInd))
	}
	uv := len(m.Unique)
	switch {
	case m.VI8 != nil:
		if len(m.VI8) != len(m.ColInd) {
			return core.Shapef("csrvi: %d val_ind entries for %d non-zeros", len(m.VI8), len(m.ColInd))
		}
		for k, vi := range m.VI8 {
			if int(vi) >= uv {
				return core.Corruptf("csrvi: value index %d at position %d outside %d unique values", vi, k, uv)
			}
		}
	case m.VI16 != nil:
		if len(m.VI16) != len(m.ColInd) {
			return core.Shapef("csrvi: %d val_ind entries for %d non-zeros", len(m.VI16), len(m.ColInd))
		}
		for k, vi := range m.VI16 {
			if int(vi) >= uv {
				return core.Corruptf("csrvi: value index %d at position %d outside %d unique values", vi, k, uv)
			}
		}
	case m.VI32 != nil:
		if len(m.VI32) != len(m.ColInd) {
			return core.Shapef("csrvi: %d val_ind entries for %d non-zeros", len(m.VI32), len(m.ColInd))
		}
		for k, vi := range m.VI32 {
			if int(vi) >= uv {
				return core.Corruptf("csrvi: value index %d at position %d outside %d unique values", vi, k, uv)
			}
		}
	}
	return nil
}
