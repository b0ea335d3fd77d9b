package csr

import (
	"errors"

	"spmv/internal/core"
)

// Verify implements core.Verifier: row pointer monotone and spanning
// exactly nnz, column indices inside [0, cols), and the value codec the
// name says — one value per non-zero in its one stream, and under the
// dictionary codec every val_ind entry inside vals_unique. O(nnz).
func (m *Matrix) Verify() error {
	if m.rows < 0 || m.cols < 0 {
		return core.Shapef("%s: negative dimensions %dx%d", m.name, m.rows, m.cols)
	}
	if len(m.RowPtr) != m.rows+1 {
		return core.Shapef("%s: row pointer length %d, want %d", m.name, len(m.RowPtr), m.rows+1)
	}
	vis := 0 // val_ind streams present
	for _, present := range []bool{m.VI8 != nil, m.VI16 != nil, m.VI32 != nil} {
		if present {
			vis++
		}
	}
	var stray bool
	switch m.name {
	case "csr":
		stray = m.Values32 != nil || m.Unique != nil || vis > 0
	case "csr32":
		stray = m.Values != nil || m.Unique != nil || vis > 0
	default:
		stray = m.Values != nil || m.Values32 != nil || vis > 1
	}
	if stray {
		return core.Corruptf("%s: value streams of another codec present", m.name)
	}
	values := len(m.Values) + len(m.Values32) + len(m.VI8) + len(m.VI16) + len(m.VI32)
	if vis == 0 {
		values += len(m.Unique)
	}
	if len(m.ColInd) != values {
		return core.Shapef("%s: %d column indices for %d values", m.name, len(m.ColInd), values)
	}
	if err := core.CheckRowPtr(m.RowPtr, len(m.ColInd)); err != nil {
		return err
	}
	if err := core.CheckColInd(m.ColInd, m.cols); err != nil {
		return err
	}
	n := len(m.Unique)
	return errors.Join(outside(m.VI8, n), outside(m.VI16, n), outside(m.VI32, n))
}

// outside reports the first value index in ids that is not below n.
func outside[I uint8 | uint16 | uint32](ids []I, n int) error {
	for k, id := range ids {
		if int(id) >= n {
			return core.Corruptf("csr-vi: value index %d at position %d outside %d unique values", id, k, n)
		}
	}
	return nil
}
