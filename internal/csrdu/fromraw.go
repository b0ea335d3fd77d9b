package csrdu

import (
	"encoding/binary"

	"spmv/internal/core"
	"spmv/internal/csrvi"
	"spmv/internal/varint"
)

// scanStream walks a ctl stream trusting nothing: every unit header,
// varint, fixed-width delta block and row/column position is bounds-
// checked. It returns the row marks the partitioner needs. nvals is
// the expected element count; the scan fails unless the stream decodes
// to exactly that many elements.
// Errors wrap core.ErrCorrupt / core.ErrTruncated / core.ErrShape.
func scanStream(ctl []byte, nvals, rows, cols int) (marks []mark, err error) {
	pos := 0
	vi := 0
	yi := -1
	xi := 0
	afterRep := false
	readVarint := func() (uint64, error) {
		v, n := varint.Decode(ctl[pos:])
		if n == 0 {
			return 0, core.Truncatedf("csrdu: varint at offset %d", pos)
		}
		if n < 0 {
			return 0, core.Corruptf("csrdu: varint overflow at offset %d", pos)
		}
		pos += n
		return v, nil
	}
	for pos < len(ctl) {
		if pos+2 > len(ctl) {
			return nil, core.Truncatedf("csrdu: unit header at offset %d", pos)
		}
		flags := ctl[pos]
		size := int(ctl[pos+1])
		unitStart := pos
		pos += 2
		if size == 0 {
			return nil, core.Corruptf("csrdu: zero-size unit at offset %d", unitStart)
		}
		if flags&flagsRes != 0 {
			return nil, core.Corruptf("csrdu: reserved uflags bits %#x at offset %d", flags&flagsRes, unitStart)
		}
		if flags&(FlagNR|FlagRJMP) == FlagRJMP {
			return nil, core.Corruptf("csrdu: row jump without new-row flag at offset %d", unitStart)
		}
		if afterRep && flags&FlagNR == 0 {
			return nil, core.Corruptf("csrdu: unit at offset %d continues a REP unit's row", unitStart)
		}
		if flags&FlagREP != 0 && flags&(FlagNR|FlagRLE) != FlagNR {
			return nil, core.Corruptf("csrdu: REP flag on a unit that does not start its row or is RLE at offset %d", unitStart)
		}
		afterRep = flags&FlagREP != 0
		if flags&FlagNR != 0 {
			var skip uint64 = 1
			if flags&FlagRJMP != 0 {
				if skip, err = readVarint(); err != nil {
					return nil, err
				}
				if skip == 0 {
					return nil, core.Corruptf("csrdu: zero row jump at offset %d", unitStart)
				}
			}
			if skip > uint64(rows) {
				return nil, core.Corruptf("csrdu: row jump %d exceeds %d rows at offset %d", skip, rows, unitStart)
			}
			yi += int(skip)
			if yi >= rows {
				return nil, core.Corruptf("csrdu: row %d out of range (%d rows)", yi, rows)
			}
			xi = 0
			marks = append(marks, mark{row: yi, ctl: unitStart, val: vi})
		} else if yi < 0 {
			return nil, core.Corruptf("csrdu: first unit lacks NR flag")
		}
		j, err := readVarint()
		if err != nil {
			return nil, err
		}
		if j > uint64(cols) {
			return nil, core.Corruptf("csrdu: column jump %d exceeds %d cols at offset %d", j, cols, unitStart)
		}
		xi += int(j)
		vi += size
		if vi > nvals {
			return nil, core.Shapef("csrdu: unit at %d overruns %d values", unitStart, nvals)
		}
		if flags&FlagRLE != 0 {
			d, err := readVarint()
			if err != nil {
				return nil, err
			}
			if d > uint64(cols) {
				return nil, core.Corruptf("csrdu: RLE delta %d exceeds %d cols at offset %d", d, cols, unitStart)
			}
			xi += int(d) * (size - 1)
			if xi < 0 || xi >= cols {
				return nil, core.Corruptf("csrdu: column position %d out of range (%d cols) at offset %d", xi, cols, unitStart)
			}
		} else {
			cls := uint(flags & TypeMask)
			need := (size - 1) << cls
			if pos+need > len(ctl) {
				return nil, core.Truncatedf("csrdu: ucis at offset %d", pos)
			}
			for k := 1; k < size; k++ {
				d := leUint(ctl[pos:], cls)
				pos += 1 << cls
				if d > uint64(cols) {
					return nil, core.Corruptf("csrdu: delta %d exceeds %d cols at offset %d", d, cols, unitStart)
				}
				xi += int(d)
				if xi >= cols {
					return nil, core.Corruptf("csrdu: column position %d out of range (%d cols) at offset %d", xi, cols, unitStart)
				}
			}
		}
		if xi < 0 || xi >= cols {
			return nil, core.Corruptf("csrdu: column position %d out of range (%d cols) at offset %d", xi, cols, unitStart)
		}
		if flags&FlagREP != 0 {
			// The run's last row holds the unit's columns shifted by
			// r: its last column, its row and its values must fit.
			if pos >= len(ctl) || ctl[pos] == 0 {
				return nil, core.Corruptf("csrdu: REP unit at offset %d without a non-zero row count", unitStart)
			}
			r := int(ctl[pos])
			pos++
			if xi+r >= cols {
				return nil, core.Corruptf("csrdu: REP unit at offset %d shifts column %d past %d cols", unitStart, xi+r, cols)
			}
			if yi+r >= rows {
				return nil, core.Corruptf("csrdu: REP unit at offset %d repeats past row %d (%d rows)", unitStart, yi+r, rows)
			}
			if vi += r * size; vi > nvals {
				return nil, core.Corruptf("csrdu: REP unit at %d overruns %d values", unitStart, nvals)
			}
			yi += r
		}
	}
	if vi != nvals {
		return nil, core.Shapef("csrdu: stream encodes %d elements, %d values given", vi, nvals)
	}
	return marks, nil
}

// FromRaw reconstructs a Matrix from a serialized ctl stream and values
// array (the inverse of reading m.Ctl/m.Values, used by the matfile
// container). The stream is scanned once to validate its structure —
// bounds of every row and column position, value-count consistency —
// and to rebuild the row marks that partitioning needs. Unlike the hot
// SpMV decoder, this scan trusts nothing about the input. rle records
// whether the stream was encoded with Options.RLE (the container's
// csr-du-rle tag), which Name reports; a stream need not hold an RLE
// unit to be one, since rows shorter than RLEMin never get one.
func FromRaw(ctl []byte, values []float64, rows, cols int, rle bool) (*Matrix, error) {
	m, err := fromRaw(ctl, len(values), rows, cols)
	if err != nil {
		return nil, err
	}
	m.Values = values
	m.opts.RLE = rle
	return m, nil
}

// FromRawVI is FromRaw for the dictionary codec: the ctl stream, the
// packed little-endian val_ind array with its element width, and the
// unique table. Besides FromRaw's scan, every value index is checked
// against the table before a kernel can touch it.
func FromRawVI(ctl []byte, width int, vi []byte, unique []float64, rows, cols int) (*Matrix, error) {
	if width != 1 && width != 2 && width != 4 {
		return nil, core.Corruptf("csrdu: invalid val_ind width %d", width)
	}
	if len(vi)%width != 0 {
		return nil, core.Shapef("csrdu: val_ind size %d not a multiple of width %d", len(vi), width)
	}
	ids := make([]uint32, len(vi)/width)
	for k := range ids {
		switch width {
		case 1:
			ids[k] = uint32(vi[k])
		case 2:
			ids[k] = uint32(binary.LittleEndian.Uint16(vi[2*k:]))
		default:
			ids[k] = binary.LittleEndian.Uint32(vi[4*k:])
		}
	}
	m, err := fromRaw(ctl, len(ids), rows, cols)
	if err != nil {
		return nil, err
	}
	m.Unique = unique
	m.VI8, m.VI16, m.VI32 = csrvi.Narrow(ids, width)
	if err := m.checkIndices(); err != nil {
		return nil, err
	}
	return m, nil
}

// fromRaw scans ctl for a matrix of nvals values and returns it with
// its row marks and no value stream.
func fromRaw(ctl []byte, nvals, rows, cols int) (*Matrix, error) {
	if rows <= 0 || cols <= 0 {
		return nil, core.Shapef("csrdu: invalid dimensions %dx%d", rows, cols)
	}
	marks, err := scanStream(ctl, nvals, rows, cols)
	if err != nil {
		return nil, err
	}
	m := &Matrix{rows: rows, cols: cols, Ctl: ctl, opts: Options{}.withDefaults()}
	m.marks = marks
	return m, nil
}

// Verify implements core.Verifier: the full untrusting scan of the ctl
// stream (the kernel's preconditions exactly — if Verify passes, SpMV
// cannot read out of bounds), a consistency check of the row marks
// the partitioner uses against the stream's actual row starts, and
// under the dictionary codec the value indices against Unique.
func (m *Matrix) Verify() error {
	if m.rows < 0 || m.cols < 0 {
		return core.Shapef("csrdu: negative dimensions %dx%d", m.rows, m.cols)
	}
	if len(m.Ctl) > 0 && (m.rows == 0 || m.cols == 0) {
		return core.Shapef("csrdu: non-empty stream for %dx%d matrix", m.rows, m.cols)
	}
	if err := m.checkIndices(); err != nil {
		return err
	}
	marks, err := scanStream(m.Ctl, m.NNZ(), m.rows, m.cols)
	if err != nil {
		return err
	}
	if len(marks) != len(m.marks) {
		return core.Corruptf("csrdu: %d row marks stored, stream has %d rows", len(m.marks), len(marks))
	}
	for i := range marks {
		if marks[i] != m.marks[i] {
			return core.Corruptf("csrdu: row mark %d (%+v) disagrees with stream (%+v)", i, m.marks[i], marks[i])
		}
	}
	return nil
}

// checkIndices checks the value codec: at most one value stream, and
// under the dictionary codec every index inside Unique.
func (m *Matrix) checkIndices() error {
	streams := 0
	for _, present := range []bool{m.Values != nil, m.VI8 != nil, m.VI16 != nil, m.VI32 != nil} {
		if present {
			streams++
		}
	}
	if streams > 1 {
		return core.Corruptf("csrdu: %d value streams present, want one", streams)
	}
	switch {
	case m.VI8 != nil:
		return indicesInRange(m.VI8, len(m.Unique))
	case m.VI16 != nil:
		return indicesInRange(m.VI16, len(m.Unique))
	case m.VI32 != nil:
		return indicesInRange(m.VI32, len(m.Unique))
	}
	return nil
}

func indicesInRange[I uint8 | uint16 | uint32](ind []I, unique int) error {
	for k, v := range ind {
		if int(v) >= unique {
			return core.Corruptf("csrdu: value index %d at position %d outside %d unique values", v, k, unique)
		}
	}
	return nil
}
