package csrduvi

import (
	"encoding/binary"

	"spmv/internal/core"
	"spmv/internal/csrdu"
	"spmv/internal/csrvi"
)

// FromRaw reconstructs a Matrix from its serialized streams (used by
// the matfile container): the CSR-DU ctl stream, the packed val_ind
// array with its element width, and the unique value table. Everything
// is validated — the ctl stream through csrdu's untrusting scan, the
// value indices against the unique table — before a kernel can touch
// it.
func FromRaw(ctl []byte, viWidth int, vi []byte, unique []float64, rows, cols int) (*Matrix, error) {
	if viWidth != 1 && viWidth != 2 && viWidth != 4 {
		return nil, core.Corruptf("csrduvi: invalid val_ind width %d", viWidth)
	}
	if len(vi)%viWidth != 0 {
		return nil, core.Shapef("csrduvi: val_ind size %d not a multiple of width %d", len(vi), viWidth)
	}
	nnz := len(vi) / viWidth
	values := make([]float64, nnz)
	ind := make([]uint32, nnz)
	for k := 0; k < nnz; k++ {
		var idx uint32
		switch viWidth {
		case 1:
			idx = uint32(vi[k])
		case 2:
			idx = uint32(binary.LittleEndian.Uint16(vi[k*2:]))
		default:
			idx = binary.LittleEndian.Uint32(vi[k*4:])
		}
		if int(idx) >= len(unique) {
			return nil, core.Corruptf("csrduvi: value index %d at position %d outside %d unique values", idx, k, len(unique))
		}
		ind[k] = idx
		values[k] = unique[idx]
	}
	du, err := csrdu.FromRaw(ctl, values, rows, cols)
	if err != nil {
		return nil, err
	}
	m := &Matrix{du: du, marks: du.RowMarks(), Unique: unique}
	m.VI8, m.VI16, m.VI32 = csrvi.Narrow(ind, viWidth)
	return m, nil
}
