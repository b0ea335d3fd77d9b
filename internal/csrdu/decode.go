package csrdu

import (
	"encoding/binary"

	"spmv/internal/core"
	"spmv/internal/varint"
)

// chunk is a contiguous row range of a CSR-DU matrix with its own
// offsets into the ctl and values streams. startMark indexes the first
// row mark of the chunk (-1 for the empty-matrix chunk) so the decoder
// can anchor its row counter without depending on state from preceding
// chunks.
type chunk struct {
	m            *Matrix
	lo, hi       int // row range [lo, hi)
	ctlLo, ctlHi int
	valLo, valHi int
	startMark    int
}

var _ core.Tracer = (*chunk)(nil)

func (c *chunk) RowRange() (int, int) { return c.lo, c.hi }
func (c *chunk) NNZ() int             { return c.valHi - c.valLo }

// SpMV runs the CSR-DU kernel (paper Fig 3) over the chunk: one decode
// switch per unit, a branch-free loop per delta class inside it, the row
// sum in a register. The paper's premise is that this decode is cheap
// next to the bytes it saves; what keeps it cheap here:
//
//   - Header at the bottom. The first unit's header is read before the
//     loop (its row comes from the chunk's row mark, its rjmp is relative
//     to a row of another chunk and is skipped); every later header is
//     read where the previous unit ends, so the loop carries no
//     first-unit flag and its exit test is the header read's own.
//   - Rows are stored once. A new-row header stores the finished sum to
//     y[yi]; the rows a row jump passes over, and the chunk's leading and
//     trailing empty rows, are zeroed where they are skipped. There is no
//     zeroing pass over y and no read-modify-write of it.
//   - ujmp is decoded by an unrolled 1/2/3-byte path (columns below 2^21);
//     longer varints continue in the general loop.
//   - u16 and u32 deltas are read four and two at a time through one
//     8-byte little-endian load while 8 bytes of ctl remain, byte-wise at
//     the very end of the chunk's stream. A load may run past the unit
//     into the next header; it never runs past the chunk.
//   - Nothing is called inside the loop — the row-jump zeroing is a plain
//     loop for that reason. Go keeps no register across a call, so one
//     call site, even a cold one, puts every loop-carried value on the
//     stack on every iteration.
//
// Two invariants hold across all of it, and the tests pin both
// (testmat.CheckBitwise): a row's products are added left to right in
// stream order, starting from +0, so y is bitwise what accumulating
// ForEach gives, whatever the kernel, panel width or partition; and the
// chunk writes every row of [lo, hi) and no other, so disjoint chunks
// may run concurrently on one y.
//
// The stream must have passed Verify (FromCOO's output does by
// construction): unit sizes are positive and every offset the headers
// imply lies inside ctl and values.
func (c *chunk) SpMV(y, x []float64) {
	if c.startMark < 0 || c.ctlLo >= c.ctlHi {
		clear(y[c.lo:c.hi])
		return
	}
	m := c.m
	ctl := m.Ctl[:c.ctlHi]
	values := m.Values[:c.valHi]
	pos, vi := c.ctlLo, c.valLo

	yi := m.marks[c.startMark].row
	clear(y[c.lo:yi])
	flags := ctl[pos]
	size := int(ctl[pos+1])
	pos += 2
	if flags&FlagRJMP != 0 {
		_, pos = varint.DecodeAt(ctl, pos)
	}
	xi, sum := 0, 0.0

	for {
		b := ctl[pos]
		pos++
		j := int(b)
		if b >= 0x80 {
			b = ctl[pos]
			pos++
			j = j&0x7f | int(b)<<7
			if b >= 0x80 {
				b = ctl[pos]
				pos++
				j = j&0x3fff | int(b)<<14
				if b >= 0x80 {
					var hi uint64
					hi, pos = varint.DecodeAt(ctl, pos)
					j = j&0x1fffff | int(hi)<<21
				}
			}
		}
		xi += j
		sum += values[vi] * x[xi]
		vi++

		if n := size - 1; n > 0 {
			vals := values[vi : vi+n]
			vi += n
			switch cls := flags & TypeMask; {
			case flags&FlagRLE != 0:
				var d uint64
				d, pos = varint.DecodeAt(ctl, pos)
				for _, v := range vals {
					xi += int(d)
					sum += v * x[xi]
				}
			case cls == ClassU8:
				deltas := ctl[pos : pos+n]
				pos += n
				deltas = deltas[:len(vals)]
				for k, v := range vals {
					xi += int(deltas[k])
					sum += v * x[xi]
				}
			case cls == ClassU16:
				for len(vals) >= 4 && pos+8 <= len(ctl) {
					w := binary.LittleEndian.Uint64(ctl[pos:])
					pos += 8
					xi += int(w & 0xffff)
					sum += vals[0] * x[xi]
					xi += int(w >> 16 & 0xffff)
					sum += vals[1] * x[xi]
					xi += int(w >> 32 & 0xffff)
					sum += vals[2] * x[xi]
					xi += int(w >> 48)
					sum += vals[3] * x[xi]
					vals = vals[4:]
				}
				if len(vals) > 0 {
					if pos+8 <= len(ctl) {
						w := binary.LittleEndian.Uint64(ctl[pos:])
						pos += 2 * len(vals)
						for _, v := range vals {
							xi += int(w & 0xffff)
							w >>= 16
							sum += v * x[xi]
						}
					} else {
						b := ctl[pos : pos+2*len(vals)]
						pos += len(b)
						for k, v := range vals {
							xi += int(binary.LittleEndian.Uint16(b[2*k:]))
							sum += v * x[xi]
						}
					}
				}
			case cls == ClassU32:
				for len(vals) >= 2 && pos+8 <= len(ctl) {
					w := binary.LittleEndian.Uint64(ctl[pos:])
					pos += 8
					xi += int(w & 0xffffffff)
					sum += vals[0] * x[xi]
					xi += int(w >> 32)
					sum += vals[1] * x[xi]
					vals = vals[2:]
				}
				if len(vals) > 0 {
					// One delta left: two would have been 8 bytes of ctl.
					xi += int(binary.LittleEndian.Uint32(ctl[pos:]))
					pos += 4
					sum += vals[0] * x[xi]
				}
			default:
				b := ctl[pos : pos+8*n]
				pos += 8 * n
				for k, v := range vals {
					xi += int(binary.LittleEndian.Uint64(b[8*k:]))
					sum += v * x[xi]
				}
			}
		} else if flags&FlagRLE != 0 {
			// A one-element RLE unit still carries its delta varint.
			_, pos = varint.DecodeAt(ctl, pos)
		}

		if pos >= len(ctl) {
			break
		}
		flags = ctl[pos]
		size = int(ctl[pos+1])
		pos += 2
		if flags&FlagNR != 0 {
			y[yi] = sum
			sum, xi = 0, 0
			yi++
			if flags&FlagRJMP != 0 {
				var skip uint64
				skip, pos = varint.DecodeAt(ctl, pos)
				for next := yi + int(skip) - 1; yi < next; yi++ {
					y[yi] = 0
				}
			}
		}
	}
	y[yi] = sum
	clear(y[yi+1 : c.hi])
}

// ForEach decodes the ctl stream and calls fn for every non-zero in
// row-major order. It is the exact inverse of the encoder and the basis
// of the encode/decode round-trip property tests.
func (m *Matrix) ForEach(fn func(i, j int, v float64)) {
	ctl := m.Ctl
	pos := 0
	vi := 0
	yi := -1
	xi := 0
	for pos < len(ctl) {
		flags := ctl[pos]
		size := int(ctl[pos+1])
		pos += 2
		if flags&FlagNR != 0 {
			var skip uint64 = 1
			if flags&FlagRJMP != 0 {
				skip, pos = varint.DecodeAt(ctl, pos)
			}
			yi += int(skip)
			xi = 0
		}
		var j uint64
		j, pos = varint.DecodeAt(ctl, pos)
		xi += int(j)
		fn(yi, xi, m.Values[vi])
		vi++
		if flags&FlagRLE != 0 {
			var d uint64
			d, pos = varint.DecodeAt(ctl, pos)
			for k := 1; k < size; k++ {
				xi += int(d)
				fn(yi, xi, m.Values[vi])
				vi++
			}
			continue
		}
		cls := uint(flags & TypeMask)
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
			xi += int(d)
			fn(yi, xi, m.Values[vi])
			vi++
		}
	}
}

// Triplets decodes the matrix back to finalized COO form: the inverse
// of FromCOO.
func (m *Matrix) Triplets() *core.COO {
	c := core.NewCOO(m.rows, m.cols)
	m.ForEach(func(i, j int, v float64) { c.Add(i, j, v) })
	c.Finalize()
	return c
}

// UnitStats summarizes the unit mix of an encoded matrix: how many
// units of each delta class and how many RLE units, plus the average
// unit size. The paper's performance argument rests on units being
// large (few decode branches) and narrow (few index bytes).
type UnitStats struct {
	Units    int
	PerClass [4]int // indexed by ClassU8..ClassU64 (RLE units excluded)
	RLEUnits int
	AvgSize  float64
	CtlBytes int
}

// Stats decodes the ctl stream and returns the unit statistics.
func (m *Matrix) Stats() UnitStats {
	var s UnitStats
	s.CtlBytes = len(m.Ctl)
	pos := 0
	total := 0
	for pos < len(m.Ctl) {
		flags := m.Ctl[pos]
		size := int(m.Ctl[pos+1])
		pos += 2
		if flags&FlagRJMP != 0 {
			_, pos = varint.DecodeAt(m.Ctl, pos)
		}
		_, pos = varint.DecodeAt(m.Ctl, pos) // ujmp
		if flags&FlagRLE != 0 {
			_, pos = varint.DecodeAt(m.Ctl, pos)
			s.RLEUnits++
		} else {
			cls := int(flags & TypeMask)
			s.PerClass[cls]++
			pos += (size - 1) << cls
		}
		s.Units++
		total += size
	}
	if s.Units > 0 {
		s.AvgSize = float64(total) / float64(s.Units)
	}
	return s
}
