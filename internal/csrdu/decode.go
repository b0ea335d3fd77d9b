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

// SpMV runs the CSR-DU kernel (paper Fig 3) over the chunk. The paper's
// premise is that the decode is cheap next to the bytes it saves; what
// keeps it cheap here:
//
//   - Per-class run loops. SpMV is a dispatcher: it reads a header and
//     hands a u8, u16 or u32 unit to that class's leaf loop
//     (spmvRunU8/16/32), which then consumes every following unit of
//     the same class, across row boundaries, until a header of another
//     kind. The dispatcher itself decodes only the rare kinds: RLE and
//     u64 units, and headers that carry a row jump. A leaf is called
//     once per run, not per unit, so the call costs nothing per
//     non-zero — and a leaf has no call site inside its loop, so its
//     loop-carried state stays in registers (Go keeps no register
//     across a call: one call site in a loop, even a cold one, puts
//     every value live across it on the stack on every iteration).
//   - Header at the bottom. The first unit's header is read before the
//     loop (its row comes from the chunk's row mark, its rjmp is relative
//     to a row of another chunk and is skipped); every later header is
//     read where the previous unit ends, so no loop carries a first-unit
//     flag and a leaf's exit test is its header read.
//   - Rows are stored once. A new-row header stores the finished sum to
//     y[yi]; the rows a row jump passes over, and the chunk's leading and
//     trailing empty rows, are zeroed where they are skipped. There is no
//     zeroing pass over y and no read-modify-write of it.
//   - ujmp is decoded in line by an unrolled 1/2/3-byte path (columns
//     below 2^21) and a loop for longer varints (decodeUjmp).
//   - Deltas are read in blocks of up to eight bytes, each through one
//     little-endian load of exactly the block's bytes (see the run
//     loops).
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
	k := runArgs{ctl: ctl, values: values, x: x, y: y}

	for {
		// pos is at the ujmp of a unit whose header was flags, size.
		switch cls := flags & TypeMask; {
		case flags&FlagRLE != 0:
			var j, d uint64
			j, pos = varint.DecodeAt(ctl, pos)
			d, pos = varint.DecodeAt(ctl, pos)
			xi += int(j)
			sum += values[vi] * x[xi]
			for _, v := range values[vi+1 : vi+size] {
				xi += int(d)
				sum += v * x[xi]
			}
			vi += size
		case cls == ClassU8:
			pos, vi, xi, yi, sum = spmvRunU8(&k, pos, vi, xi, yi, size, sum)
		case cls == ClassU16:
			pos, vi, xi, yi, sum = spmvRunU16(&k, pos, vi, xi, yi, size, sum)
		case cls == ClassU32:
			pos, vi, xi, yi, sum = spmvRunU32(&k, pos, vi, xi, yi, size, sum)
		default:
			var j uint64
			j, pos = varint.DecodeAt(ctl, pos)
			xi += int(j)
			sum += values[vi] * x[xi]
			b := ctl[pos : pos+8*(size-1)]
			pos += len(b)
			for k, v := range values[vi+1 : vi+size] {
				xi += int(binary.LittleEndian.Uint64(b[8*k:]))
				sum += v * x[xi]
			}
			vi += size
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
				yi, pos = SkipRows(y, 1, yi, ctl, pos)
			}
		}
	}
	y[yi] = sum
	clear(y[yi+1 : c.hi])
}

// The run loops. Each takes the dispatcher's state with pos at the ujmp
// of a unit of its class whose header announced size elements, and
// returns the state at the first header it does not take — one of
// another class, of an RLE unit or with a row jump — or at the end of
// the stream. A new-row header without a row jump is taken: the
// finished sum is stored and the next row begins inside the loop.
//
// The deltas are read in blocks, each through one little-endian load of
// exactly its bytes: four, two and one u8 deltas; four, two and one
// u16; two and one u32. A unit's deltas take the widest block while it
// fits and one block of each narrower width the remainder needs, so no
// load runs past the unit and there is no byte loop. (Eight u8 deltas
// per load ran 9% slower on 255-element units out of cache.) ctl and
// values are indexed by offset, not re-sliced per unit; a block takes a
// 3-index slice whose length and capacity are its own, so its elements
// need no further check. What a loop carries — pos, vi, xi, the sum,
// and the bases and lengths of ctl, values and x — fits the register
// file; yi and the runArgs pointer wait on the stack, touched once a
// row.

// runArgs are the streams a run loop reads and the y it writes, passed
// by reference so that entering a loop moves only the scalar state.
type runArgs struct {
	ctl       []byte
	values, x []float64
	y         []float64
}

// spmvRunU8 consumes a run of u8 units.
//
//go:noinline
func spmvRunU8(k *runArgs, pos, vi, xi, yi, size int, sum float64) (int, int, int, int, float64) {
	ctl, values, x := k.ctl[:len(k.ctl):len(k.ctl)], k.values[:len(k.values):len(k.values)], k.x
	for {
		var j int
		j, pos = decodeUjmp(ctl, pos)
		xi += j
		sum += values[vi] * x[xi]
		vi++
		n := size - 1
		for ; n >= 4; n -= 4 {
			w := binary.LittleEndian.Uint32(ctl[pos : pos+4 : pos+4])
			v := values[vi : vi+4 : vi+4]
			xi += int(w & 0xff)
			sum += v[0] * x[xi]
			xi += int(w >> 8 & 0xff)
			sum += v[1] * x[xi]
			xi += int(w >> 16 & 0xff)
			sum += v[2] * x[xi]
			xi += int(w >> 24)
			sum += v[3] * x[xi]
			pos += 4
			vi += 4
		}
		if n&2 != 0 {
			w := binary.LittleEndian.Uint16(ctl[pos : pos+2 : pos+2])
			v := values[vi : vi+2 : vi+2]
			xi += int(w & 0xff)
			sum += v[0] * x[xi]
			xi += int(w >> 8)
			sum += v[1] * x[xi]
			pos += 2
			vi += 2
		}
		if n&1 != 0 {
			xi += int(ctl[pos])
			sum += values[vi] * x[xi]
			pos++
			vi++
		}

		if pos >= len(ctl) {
			return pos, vi, xi, yi, sum
		}
		flags := ctl[pos]
		if flags&^FlagNR != ClassU8 {
			return pos, vi, xi, yi, sum
		}
		size = int(ctl[pos+1])
		pos += 2
		if flags != ClassU8 {
			k.y[yi] = sum
			sum, xi = 0, 0
			yi++
		}
	}
}

// spmvRunU16 consumes a run of u16 units.
//
//go:noinline
func spmvRunU16(k *runArgs, pos, vi, xi, yi, size int, sum float64) (int, int, int, int, float64) {
	ctl, values, x := k.ctl[:len(k.ctl):len(k.ctl)], k.values[:len(k.values):len(k.values)], k.x
	for {
		var j int
		j, pos = decodeUjmp(ctl, pos)
		xi += j
		sum += values[vi] * x[xi]
		vi++
		n := size - 1
		for ; n >= 4; n -= 4 {
			w := binary.LittleEndian.Uint64(ctl[pos : pos+8 : pos+8])
			v := values[vi : vi+4 : vi+4]
			xi += int(w & 0xffff)
			sum += v[0] * x[xi]
			xi += int(w >> 16 & 0xffff)
			sum += v[1] * x[xi]
			xi += int(w >> 32 & 0xffff)
			sum += v[2] * x[xi]
			xi += int(w >> 48)
			sum += v[3] * x[xi]
			pos += 8
			vi += 4
		}
		if n&2 != 0 {
			w := binary.LittleEndian.Uint32(ctl[pos : pos+4 : pos+4])
			v := values[vi : vi+2 : vi+2]
			xi += int(w & 0xffff)
			sum += v[0] * x[xi]
			xi += int(w >> 16)
			sum += v[1] * x[xi]
			pos += 4
			vi += 2
		}
		if n&1 != 0 {
			xi += int(binary.LittleEndian.Uint16(ctl[pos : pos+2 : pos+2]))
			sum += values[vi] * x[xi]
			pos += 2
			vi++
		}

		if pos >= len(ctl) {
			return pos, vi, xi, yi, sum
		}
		flags := ctl[pos]
		if flags&^FlagNR != ClassU16 {
			return pos, vi, xi, yi, sum
		}
		size = int(ctl[pos+1])
		pos += 2
		if flags != ClassU16 {
			k.y[yi] = sum
			sum, xi = 0, 0
			yi++
		}
	}
}

// spmvRunU32 consumes a run of u32 units.
//
//go:noinline
func spmvRunU32(k *runArgs, pos, vi, xi, yi, size int, sum float64) (int, int, int, int, float64) {
	ctl, values, x := k.ctl[:len(k.ctl):len(k.ctl)], k.values[:len(k.values):len(k.values)], k.x
	for {
		var j int
		j, pos = decodeUjmp(ctl, pos)
		xi += j
		sum += values[vi] * x[xi]
		vi++
		n := size - 1
		for ; n >= 2; n -= 2 {
			w := binary.LittleEndian.Uint64(ctl[pos : pos+8 : pos+8])
			v := values[vi : vi+2 : vi+2]
			xi += int(w & 0xffffffff)
			sum += v[0] * x[xi]
			xi += int(w >> 32)
			sum += v[1] * x[xi]
			pos += 8
			vi += 2
		}
		if n != 0 {
			xi += int(binary.LittleEndian.Uint32(ctl[pos : pos+4 : pos+4]))
			sum += values[vi] * x[xi]
			pos += 4
			vi++
		}

		if pos >= len(ctl) {
			return pos, vi, xi, yi, sum
		}
		flags := ctl[pos]
		if flags&^FlagNR != ClassU32 {
			return pos, vi, xi, yi, sum
		}
		size = int(ctl[pos+1])
		pos += 2
		if flags != ClassU32 {
			k.y[yi] = sum
			sum, xi = 0, 0
			yi++
		}
	}
}

// decodeUjmp decodes the ujmp varint at ctl[pos]: unrolled for the 1-,
// 2- and 3-byte encodings (columns below 2^21), a loop for longer ones,
// padded encodings included. It is small enough to inline, so the run
// loops stay free of calls. A byte's continuation bit lands on the unit
// bit of j where the next byte's payload is added; adding (b-1)*unit
// replaces it. The loop multiplies instead of shifting by a variable
// count, which on amd64 would claim CX and spill a run loop's state.
func decodeUjmp(ctl []byte, pos int) (j, next int) {
	j = int(ctl[pos])
	next = pos + 1
	if j >= 1<<7 {
		j += int(ctl[next])<<7 - 1<<7
		next++
		if j >= 1<<14 {
			j += int(ctl[next])<<14 - 1<<14
			next++
			for unit := 1 << 21; ctl[next-1] >= 0x80; unit <<= 7 {
				j += (int(ctl[next]) - 1) * unit
				next++
			}
		}
	}
	return j, next
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
		if flags&(FlagNR|FlagRJMP) == FlagNR|FlagRJMP {
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
