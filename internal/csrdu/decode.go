package csrdu

import (
	"encoding/binary"

	"spmv/internal/core"
	"spmv/internal/csrvi"
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

// SpMV runs the CSR-DU kernel (paper Fig 3) over the chunk: the one-
// vector case of SpMVBatch, which picks the value codec's instantiation
// of spmvScalar.
func (c *chunk) SpMV(y, x []float64) { c.SpMVBatch(y, x, 1) }

// spmvScalar is the one-vector kernel. The paper's premise is that the
// decode is cheap next to the bytes it saves; what keeps it cheap here:
//
//   - Per-class run loops. spmvScalar is a dispatcher: it reads a
//     header and hands a u8, u16 or u32 unit to that class's leaf loop
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
// construction): unit sizes are positive, every offset the headers
// imply lies inside ctl and values, and every val_ind entry inside
// Unique. The chunk must hold at least one unit.
func spmvScalar[V csrvi.Value](c *chunk, k *runArgs[V]) {
	ctl, values, unique, x := k.streams()
	y := k.y
	pos, vi := c.ctlLo, c.valLo
	var buf [MaxUnit]int32

	k.yi = c.m.marks[c.startMark].row
	clear(y[c.lo:k.yi])
	flags := ctl[pos]
	size := int(ctl[pos+1])
	pos += 2
	if flags&FlagRJMP != 0 {
		_, pos = varint.DecodeAt(ctl, pos)
	}
	xi, sum := 0, 0.0

	for {
		// pos is at the ujmp of a unit whose header was flags, size.
		switch cls := flags & TypeMask; {
		case flags&FlagREP != 0:
			pos, vi, sum = spmvRunRep(k, pos, vi, size, flags, &buf)
		case flags&FlagRLE != 0:
			var j, d uint64
			j, pos = varint.DecodeAt(ctl, pos)
			d, pos = varint.DecodeAt(ctl, pos)
			xi += int(j)
			sum += csrvi.Load(values[vi], unique) * x[xi]
			for _, v := range values[vi+1 : vi+size] {
				xi += int(d)
				sum += csrvi.Load(v, unique) * x[xi]
			}
			vi += size
		case cls == ClassU8:
			pos, vi, xi, sum = spmvRunU8(k, pos, vi, xi, size, sum)
		case cls == ClassU16:
			pos, vi, xi, sum = spmvRunU16(k, pos, vi, xi, size, sum)
		case cls == ClassU32:
			pos, vi, xi, sum = spmvRunU32(k, pos, vi, xi, size, sum)
		default:
			var j uint64
			j, pos = varint.DecodeAt(ctl, pos)
			xi += int(j)
			sum += csrvi.Load(values[vi], unique) * x[xi]
			b := ctl[pos : pos+8*(size-1)]
			pos += len(b)
			for i, v := range values[vi+1 : vi+size] {
				xi += int(binary.LittleEndian.Uint64(b[8*i:]))
				sum += csrvi.Load(v, unique) * x[xi]
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
			y[k.yi] = sum
			sum, xi = 0, 0
			k.yi++
			if flags&FlagRJMP != 0 {
				k.yi, pos = SkipRows(y, 1, k.yi, ctl, pos)
			}
		}
	}
	y[k.yi] = sum
	clear(y[k.yi+1 : c.hi])
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
// file; the runArgs pointer waits on the stack and yi behind it,
// touched once a row. The dictionary codec's instantiations carry
// Unique as well; under a u8 stream spmvRunU8, spmvRunU16 and spmvRunRep
// read it through its 256-entry table (csrvi.LoadTable), with no bounds
// check. spmvRunU32 keeps the checked load: its 8-nnz u32 units ran no
// faster with the table (DESIGN §19).

// runArgs are the streams a kernel reads, the y it writes and the row
// yi it is on, passed by reference so that entering a run loop moves
// only the scalar state that changes per non-zero.
type runArgs[V csrvi.Value] struct {
	ctl    []byte
	values []V
	unique []float64
	x, y   []float64
	yi     int
	tab    *[csrvi.TableSize]float64 // unique's u8 table (csrvi.Table); set under a u8 stream
}

// streams returns the streams a kernel reads, ctl and values with their
// capacities cut to their lengths. Every kernel calls it first, and so
// it must stay a generic call: the compiler checks the kernel's type
// dictionary for nil at the first one, and that check dominates, and
// drops, the ones each inlined csrvi.Load would repeat in the loops, which
// would otherwise keep the dictionary in a register.
func (k *runArgs[V]) streams() (ctl []byte, values []V, unique, x []float64) {
	return k.ctl[:len(k.ctl):len(k.ctl)], k.values[:len(k.values):len(k.values)], k.unique, k.x
}

// table returns the u8 table of a u8 stream's kernel (csrvi.LoadTable).
// Its nil check, made once at the loop's entry, dominates and drops the
// ones each table load in the loop would repeat.
func (k *runArgs[V]) table() *[csrvi.TableSize]float64 {
	if V(csrvi.TableSize-1)+1 == 0 {
		_ = k.tab[0]
	}
	return k.tab
}

// spmvRunU8 consumes a run of u8 units.
//
//go:noinline
func spmvRunU8[V csrvi.Value](k *runArgs[V], pos, vi, xi, size int, sum float64) (int, int, int, float64) {
	ctl, values, unique, x := k.streams()
	tab := k.table()
	for {
		var j int
		j, pos = decodeUjmp(ctl, pos)
		xi += j
		sum += csrvi.LoadTable(values[vi], unique, tab) * x[xi]
		vi++
		n := size - 1
		for ; n >= 4; n -= 4 {
			w := binary.LittleEndian.Uint32(ctl[pos : pos+4 : pos+4])
			v := values[vi : vi+4 : vi+4]
			xi += int(w & 0xff)
			sum += csrvi.LoadTable(v[0], unique, tab) * x[xi]
			xi += int(w >> 8 & 0xff)
			sum += csrvi.LoadTable(v[1], unique, tab) * x[xi]
			xi += int(w >> 16 & 0xff)
			sum += csrvi.LoadTable(v[2], unique, tab) * x[xi]
			xi += int(w >> 24)
			sum += csrvi.LoadTable(v[3], unique, tab) * x[xi]
			pos += 4
			vi += 4
		}
		if n&2 != 0 {
			w := binary.LittleEndian.Uint16(ctl[pos : pos+2 : pos+2])
			v := values[vi : vi+2 : vi+2]
			xi += int(w & 0xff)
			sum += csrvi.LoadTable(v[0], unique, tab) * x[xi]
			xi += int(w >> 8)
			sum += csrvi.LoadTable(v[1], unique, tab) * x[xi]
			pos += 2
			vi += 2
		}
		if n&1 != 0 {
			xi += int(ctl[pos])
			sum += csrvi.LoadTable(values[vi], unique, tab) * x[xi]
			pos++
			vi++
		}

		if pos >= len(ctl) {
			return pos, vi, xi, sum
		}
		flags := ctl[pos]
		if flags&^FlagNR != ClassU8 {
			return pos, vi, xi, sum
		}
		size = int(ctl[pos+1])
		pos += 2
		if flags != ClassU8 {
			k.y[k.yi] = sum
			sum, xi = 0, 0
			k.yi++
		}
	}
}

// spmvRunU16 consumes a run of u16 units.
//
//go:noinline
func spmvRunU16[V csrvi.Value](k *runArgs[V], pos, vi, xi, size int, sum float64) (int, int, int, float64) {
	ctl, values, unique, x := k.streams()
	tab := k.table()
	for {
		var j int
		j, pos = decodeUjmp(ctl, pos)
		xi += j
		sum += csrvi.LoadTable(values[vi], unique, tab) * x[xi]
		vi++
		n := size - 1
		for ; n >= 4; n -= 4 {
			w := binary.LittleEndian.Uint64(ctl[pos : pos+8 : pos+8])
			v := values[vi : vi+4 : vi+4]
			xi += int(w & 0xffff)
			sum += csrvi.LoadTable(v[0], unique, tab) * x[xi]
			xi += int(w >> 16 & 0xffff)
			sum += csrvi.LoadTable(v[1], unique, tab) * x[xi]
			xi += int(w >> 32 & 0xffff)
			sum += csrvi.LoadTable(v[2], unique, tab) * x[xi]
			xi += int(w >> 48)
			sum += csrvi.LoadTable(v[3], unique, tab) * x[xi]
			pos += 8
			vi += 4
		}
		if n&2 != 0 {
			w := binary.LittleEndian.Uint32(ctl[pos : pos+4 : pos+4])
			v := values[vi : vi+2 : vi+2]
			xi += int(w & 0xffff)
			sum += csrvi.LoadTable(v[0], unique, tab) * x[xi]
			xi += int(w >> 16)
			sum += csrvi.LoadTable(v[1], unique, tab) * x[xi]
			pos += 4
			vi += 2
		}
		if n&1 != 0 {
			xi += int(binary.LittleEndian.Uint16(ctl[pos : pos+2 : pos+2]))
			sum += csrvi.LoadTable(values[vi], unique, tab) * x[xi]
			pos += 2
			vi++
		}

		if pos >= len(ctl) {
			return pos, vi, xi, sum
		}
		flags := ctl[pos]
		if flags&^FlagNR != ClassU16 {
			return pos, vi, xi, sum
		}
		size = int(ctl[pos+1])
		pos += 2
		if flags != ClassU16 {
			k.y[k.yi] = sum
			sum, xi = 0, 0
			k.yi++
		}
	}
}

// spmvRunU32 consumes a run of u32 units.
//
//go:noinline
func spmvRunU32[V csrvi.Value](k *runArgs[V], pos, vi, xi, size int, sum float64) (int, int, int, float64) {
	ctl, values, unique, x := k.streams()
	for {
		var j int
		j, pos = decodeUjmp(ctl, pos)
		xi += j
		sum += csrvi.Load(values[vi], unique) * x[xi]
		vi++
		n := size - 1
		for ; n >= 2; n -= 2 {
			w := binary.LittleEndian.Uint64(ctl[pos : pos+8 : pos+8])
			v := values[vi : vi+2 : vi+2]
			xi += int(w & 0xffffffff)
			sum += csrvi.Load(v[0], unique) * x[xi]
			xi += int(w >> 32)
			sum += csrvi.Load(v[1], unique) * x[xi]
			pos += 8
			vi += 2
		}
		if n != 0 {
			xi += int(binary.LittleEndian.Uint32(ctl[pos : pos+4 : pos+4]))
			sum += csrvi.Load(values[vi], unique) * x[xi]
			pos += 4
			vi++
		}

		if pos >= len(ctl) {
			return pos, vi, xi, sum
		}
		flags := ctl[pos]
		if flags&^FlagNR != ClassU32 {
			return pos, vi, xi, sum
		}
		size = int(ctl[pos+1])
		pos += 2
		if flags != ClassU32 {
			k.y[k.yi] = sum
			sum, xi = 0, 0
			k.yi++
		}
	}
}

// spmvRunRep runs one REP unit: pos is at its ujmp, and the unit
// starts its row, so the column position and the sum are both 0. It
// decodes the unit's columns once, as offsets from the first
// (repOffsets, into buf), then multiplies the run's rows, row t reading
// x[first+t+offset] beside its values: no ctl byte is read per row.
// Each row's products are added left to right from +0. It stores every
// row of the run but the last and returns pos past the count byte, vi
// past the run's values and the last row's sum, with k.yi on that row,
// which is where the dispatcher's state would be at the end of a unit.
//
// The run's values, the x window its rows read and the y rows it
// stores are each sliced once, so a row carries only its index t.
// Rows of up to eight columns go four at a time through straight-line
// code that reads each offset from buf at a constant index once for
// all four. The four sums are independent chains, so the FP adds and
// the loads of one row issue in the latency of the others'; a loop
// over the offsets would carry a counter and a bound beside the rows'
// state, more than the register file holds, and the spilled counter
// chains every column through memory. Longer rows, and the last one to
// four rows of a run, loop over buf one row at a time.
//
//go:noinline
func spmvRunRep[V csrvi.Value](k *runArgs[V], pos, vi, size int, flags byte, buf *[MaxUnit]int32) (int, int, float64) {
	ctl, values, unique, x := k.streams()
	tab := k.table()
	xi, off, pos := repOffsets(ctl, pos, flags, buf[:size])
	rows := int(ctl[pos])
	pos++
	n := (rows + 1) * size
	vals := values[vi : vi+n : vi+n]
	vi += n
	xw := x[xi : xi+rows+1+int(off[len(off)-1])]
	ys := k.y[k.yi : k.yi+rows]
	k.yi += rows
	t := 0
	if size <= 8 {
		for ; t+3 < rows; t += 4 {
			va := vals[t*size : t*size+size]
			vb := vals[t*size+size : t*size+2*size]
			vc := vals[t*size+2*size : t*size+3*size]
			vd := vals[t*size+3*size : t*size+4*size]
			vb, vc, vd = vb[:len(va)], vc[:len(va)], vd[:len(va)]
			xr := xw[t:]
			a, b, c, d := 0.0, 0.0, 0.0, 0.0
			a += csrvi.LoadTable(va[0], unique, tab) * xr[0]
			b += csrvi.LoadTable(vb[0], unique, tab) * xr[1]
			c += csrvi.LoadTable(vc[0], unique, tab) * xr[2]
			d += csrvi.LoadTable(vd[0], unique, tab) * xr[3]
			if len(va) > 1 {
				o := int(buf[1])
				a += csrvi.LoadTable(va[1], unique, tab) * xr[o]
				b += csrvi.LoadTable(vb[1], unique, tab) * xr[o+1]
				c += csrvi.LoadTable(vc[1], unique, tab) * xr[o+2]
				d += csrvi.LoadTable(vd[1], unique, tab) * xr[o+3]
				if len(va) > 2 {
					o := int(buf[2])
					a += csrvi.LoadTable(va[2], unique, tab) * xr[o]
					b += csrvi.LoadTable(vb[2], unique, tab) * xr[o+1]
					c += csrvi.LoadTable(vc[2], unique, tab) * xr[o+2]
					d += csrvi.LoadTable(vd[2], unique, tab) * xr[o+3]
					if len(va) > 3 {
						o := int(buf[3])
						a += csrvi.LoadTable(va[3], unique, tab) * xr[o]
						b += csrvi.LoadTable(vb[3], unique, tab) * xr[o+1]
						c += csrvi.LoadTable(vc[3], unique, tab) * xr[o+2]
						d += csrvi.LoadTable(vd[3], unique, tab) * xr[o+3]
						if len(va) > 4 {
							o := int(buf[4])
							a += csrvi.LoadTable(va[4], unique, tab) * xr[o]
							b += csrvi.LoadTable(vb[4], unique, tab) * xr[o+1]
							c += csrvi.LoadTable(vc[4], unique, tab) * xr[o+2]
							d += csrvi.LoadTable(vd[4], unique, tab) * xr[o+3]
							if len(va) > 5 {
								o := int(buf[5])
								a += csrvi.LoadTable(va[5], unique, tab) * xr[o]
								b += csrvi.LoadTable(vb[5], unique, tab) * xr[o+1]
								c += csrvi.LoadTable(vc[5], unique, tab) * xr[o+2]
								d += csrvi.LoadTable(vd[5], unique, tab) * xr[o+3]
								if len(va) > 6 {
									o := int(buf[6])
									a += csrvi.LoadTable(va[6], unique, tab) * xr[o]
									b += csrvi.LoadTable(vb[6], unique, tab) * xr[o+1]
									c += csrvi.LoadTable(vc[6], unique, tab) * xr[o+2]
									d += csrvi.LoadTable(vd[6], unique, tab) * xr[o+3]
									if len(va) > 7 {
										o := int(buf[7])
										a += csrvi.LoadTable(va[7], unique, tab) * xr[o]
										b += csrvi.LoadTable(vb[7], unique, tab) * xr[o+1]
										c += csrvi.LoadTable(vc[7], unique, tab) * xr[o+2]
										d += csrvi.LoadTable(vd[7], unique, tab) * xr[o+3]
									}
								}
							}
						}
					}
				}
			}
			ys[t], ys[t+1], ys[t+2], ys[t+3] = a, b, c, d
		}
	}
	for ; ; t++ {
		v := vals[t*size : t*size+size]
		v = v[:len(off)]
		sum := 0.0
		for j, o := range off {
			sum += csrvi.LoadTable(v[j], unique, tab) * xw[t+int(o)]
		}
		if t == rows {
			return pos, vi, sum
		}
		ys[t] = sum
	}
}

// repOffsets decodes the REP unit whose ujmp is at ctl[pos] into off
// (DecodeUnit), as offsets from its first column, and returns that
// column, the offsets and pos past the unit's deltas, at its count
// byte.
func repOffsets(ctl []byte, pos int, flags byte, off []int32) (first int, _ []int32, next int) {
	next, _ = DecodeUnit(ctl, pos, flags, 0, off)
	first = int(off[0])
	for i := range off {
		off[i] -= int32(first)
	}
	return first, off, next
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
	var cols []int // a REP unit's columns
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
		if flags&FlagREP != 0 {
			// Decode the unit's columns, then emit them for its row
			// and each repeated row, shifted by the row distance.
			cols = append(cols[:0], xi)
			cls := uint(flags & TypeMask)
			for k := 1; k < size; k++ {
				xi += int(leUint(ctl[pos:], cls))
				pos += 1 << cls
				cols = append(cols, xi)
			}
			rep := int(ctl[pos])
			pos++
			for t := 0; t <= rep; t++ {
				for _, j := range cols {
					fn(yi, j+t, m.value(vi))
					vi++
				}
				yi++
			}
			yi--
			continue
		}
		fn(yi, xi, m.value(vi))
		vi++
		if flags&FlagRLE != 0 {
			var d uint64
			d, pos = varint.DecodeAt(ctl, pos)
			for k := 1; k < size; k++ {
				xi += int(d)
				fn(yi, xi, m.value(vi))
				vi++
			}
			continue
		}
		cls := uint(flags & TypeMask)
		for k := 1; k < size; k++ {
			xi += int(leUint(ctl[pos:], cls))
			pos += 1 << cls
			fn(yi, xi, m.value(vi))
			vi++
		}
	}
}

// leUint reads the little-endian delta of width class cls at the start
// of b, which must hold it: the byte-by-byte read of the walks that are
// not kernels (ForEach, the stream scan, TraceSpMV).
func leUint(b []byte, cls uint) uint64 {
	var d uint64
	for i := 1<<cls - 1; i >= 0; i-- {
		d = d<<8 | uint64(b[i])
	}
	return d
}

// value returns the k-th value in stream order, under either codec.
func (m *Matrix) value(k int) float64 {
	if m.IndexWidth() == 0 {
		return m.Values[k]
	}
	return m.Unique[m.index(k)]
}

// index returns the k-th val_ind entry of the dictionary codec.
func (m *Matrix) index(k int) uint64 {
	switch {
	case m.VI8 != nil:
		return uint64(m.VI8[k])
	case m.VI16 != nil:
		return uint64(m.VI16[k])
	}
	return uint64(m.VI32[k])
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
//
// RepUnits counts the REP units among them and RepRows the rows those
// units cover, each unit's own row and the r it repeats: the rows the
// fixed-offset loops multiply, all but RepUnits of them without a
// header or a delta of their own.
type UnitStats struct {
	Units    int
	PerClass [4]int // indexed by ClassU8..ClassU64 (RLE units excluded)
	RLEUnits int
	RepUnits int
	RepRows  int
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
		if flags&FlagREP != 0 {
			s.RepUnits++
			s.RepRows += int(m.Ctl[pos]) + 1
			pos++
		}
		s.Units++
		total += size
	}
	if s.Units > 0 {
		s.AvgSize = float64(total) / float64(s.Units)
	}
	return s
}
