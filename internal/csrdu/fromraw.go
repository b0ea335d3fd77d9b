package csrdu

import (
	"spmv/internal/core"
	"spmv/internal/varint"
)

// scanStream walks a ctl stream trusting nothing: every unit header,
// varint, fixed-width delta block and row/column position is bounds-
// checked. It returns the row marks the partitioner needs and whether
// any RLE unit was seen. nvals is the expected element count; the scan
// fails unless the stream decodes to exactly that many elements.
// Errors wrap core.ErrCorrupt / core.ErrTruncated / core.ErrShape.
func scanStream(ctl []byte, nvals, rows, cols int) (marks []mark, sawRLE bool, err error) {
	pos := 0
	vi := 0
	yi := -1
	xi := 0
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
			return nil, false, core.Truncatedf("csrdu: unit header at offset %d", pos)
		}
		flags := ctl[pos]
		size := int(ctl[pos+1])
		unitStart := pos
		pos += 2
		if size == 0 {
			return nil, false, core.Corruptf("csrdu: zero-size unit at offset %d", unitStart)
		}
		if flags&(FlagNR|FlagRJMP) == FlagRJMP {
			return nil, false, core.Corruptf("csrdu: row jump without new-row flag at offset %d", unitStart)
		}
		if flags&FlagNR != 0 {
			var skip uint64 = 1
			if flags&FlagRJMP != 0 {
				if skip, err = readVarint(); err != nil {
					return nil, false, err
				}
				if skip == 0 {
					return nil, false, core.Corruptf("csrdu: zero row jump at offset %d", unitStart)
				}
			}
			if skip > uint64(rows) {
				return nil, false, core.Corruptf("csrdu: row jump %d exceeds %d rows at offset %d", skip, rows, unitStart)
			}
			yi += int(skip)
			if yi >= rows {
				return nil, false, core.Corruptf("csrdu: row %d out of range (%d rows)", yi, rows)
			}
			xi = 0
			marks = append(marks, mark{row: yi, ctl: unitStart, val: vi})
		} else if yi < 0 {
			return nil, false, core.Corruptf("csrdu: first unit lacks NR flag")
		}
		j, err := readVarint()
		if err != nil {
			return nil, false, err
		}
		if j > uint64(cols) {
			return nil, false, core.Corruptf("csrdu: column jump %d exceeds %d cols at offset %d", j, cols, unitStart)
		}
		xi += int(j)
		vi += size
		if vi > nvals {
			return nil, false, core.Shapef("csrdu: unit at %d overruns %d values", unitStart, nvals)
		}
		if flags&FlagRLE != 0 {
			sawRLE = true
			d, err := readVarint()
			if err != nil {
				return nil, false, err
			}
			if d > uint64(cols) {
				return nil, false, core.Corruptf("csrdu: RLE delta %d exceeds %d cols at offset %d", d, cols, unitStart)
			}
			xi += int(d) * (size - 1)
			if xi < 0 || xi >= cols {
				return nil, false, core.Corruptf("csrdu: column position %d out of range (%d cols) at offset %d", xi, cols, unitStart)
			}
		} else {
			cls := uint(flags & TypeMask)
			need := (size - 1) << cls
			if pos+need > len(ctl) {
				return nil, false, core.Truncatedf("csrdu: ucis at offset %d", pos)
			}
			for k := 1; k < size; k++ {
				var d uint64
				switch cls {
				case ClassU8:
					d = uint64(ctl[pos])
				case ClassU16:
					d = uint64(ctl[pos]) | uint64(ctl[pos+1])<<8
				case ClassU32:
					d = uint64(ctl[pos]) | uint64(ctl[pos+1])<<8 |
						uint64(ctl[pos+2])<<16 | uint64(ctl[pos+3])<<24
				default:
					d = uint64(ctl[pos]) | uint64(ctl[pos+1])<<8 |
						uint64(ctl[pos+2])<<16 | uint64(ctl[pos+3])<<24 |
						uint64(ctl[pos+4])<<32 | uint64(ctl[pos+5])<<40 |
						uint64(ctl[pos+6])<<48 | uint64(ctl[pos+7])<<56
				}
				pos += 1 << cls
				if d > uint64(cols) {
					return nil, false, core.Corruptf("csrdu: delta %d exceeds %d cols at offset %d", d, cols, unitStart)
				}
				xi += int(d)
				if xi >= cols {
					return nil, false, core.Corruptf("csrdu: column position %d out of range (%d cols) at offset %d", xi, cols, unitStart)
				}
			}
		}
		if xi < 0 || xi >= cols {
			return nil, false, core.Corruptf("csrdu: column position %d out of range (%d cols) at offset %d", xi, cols, unitStart)
		}
	}
	if vi != nvals {
		return nil, false, core.Shapef("csrdu: stream encodes %d elements, %d values given", vi, nvals)
	}
	return marks, sawRLE, nil
}

// FromRaw reconstructs a Matrix from a serialized ctl stream and values
// array (the inverse of reading m.Ctl/m.Values, used by the matfile
// container). The stream is scanned once to validate its structure —
// bounds of every row and column position, value-count consistency —
// and to rebuild the row marks that partitioning needs. Unlike the hot
// SpMV decoder, this scan trusts nothing about the input.
func FromRaw(ctl []byte, values []float64, rows, cols int) (*Matrix, error) {
	if rows <= 0 || cols <= 0 {
		return nil, core.Shapef("csrdu: invalid dimensions %dx%d", rows, cols)
	}
	marks, sawRLE, err := scanStream(ctl, len(values), rows, cols)
	if err != nil {
		return nil, err
	}
	m := &Matrix{rows: rows, cols: cols, Ctl: ctl, Values: values, opts: Options{}.withDefaults()}
	m.marks = marks
	m.opts.RLE = sawRLE
	return m, nil
}

// Verify implements core.Verifier: the full untrusting scan of the ctl
// stream (the kernel's preconditions exactly — if Verify passes, SpMV
// cannot read out of bounds), plus a consistency check of the row marks
// the partitioner uses against the stream's actual row starts.
func (m *Matrix) Verify() error {
	if m.rows < 0 || m.cols < 0 {
		return core.Shapef("csrdu: negative dimensions %dx%d", m.rows, m.cols)
	}
	if len(m.Ctl) > 0 && (m.rows == 0 || m.cols == 0) {
		return core.Shapef("csrdu: non-empty stream for %dx%d matrix", m.rows, m.cols)
	}
	marks, _, err := scanStream(m.Ctl, len(m.Values), m.rows, m.cols)
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
