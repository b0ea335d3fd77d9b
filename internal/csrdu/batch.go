package csrdu

import (
	"encoding/binary"

	"spmv/internal/core"
	"spmv/internal/csrvi"
	"spmv/internal/varint"
)

// Batched SpMV (SpMM) for CSR-DU: the ctl bytecode is decoded once per
// unit and the decoded deltas drive k FMA columns. Decode work — the
// price CSR-DU pays for its smaller stream — is a per-multiplication
// cost, so batching amortizes it together with the stream bytes: per
// vector, both fall by 1/k.
//
// "Once per unit" is literal: the k=8 kernel reads each delta once and
// runs its eight FMA columns off it (spmvRunPanel8); the other widths
// expand a unit into its column indices with DecodeUnit and run their
// FMA columns off that buffer. The walk over unit headers has the
// scalar kernel's shape (see spmvScalar): the first header is peeled,
// a panel row is stored once when the next row's header arrives, and
// the rows no unit touches are zeroed where they are skipped, so only
// rows [lo, hi) are written.

var (
	_ core.BatchFormat = (*Matrix)(nil)
	_ core.BatchChunk  = (*chunk)(nil)
)

// batchDecodeHook, when non-nil, receives the number of ctl units one
// batch-kernel call decoded. It is the test hook behind the
// amortization claim: a k-column batch must decode each unit once
// (units == Stats().Units), not once per column. Nil outside tests;
// the kernel pays one nil check per call.
var batchDecodeHook func(units int)

// SpMVBatch implements core.BatchFormat. len(x) >= Cols()*k,
// len(y) >= Rows()*k; k = 1 is bitwise identical to SpMV.
func (m *Matrix) SpMVBatch(y, x []float64, k int) { m.whole().SpMVBatch(y, x, k) }

// SpMVBatch implements core.BatchChunk: only panel rows [lo, hi) are
// written, so disjoint chunks may run concurrently. It picks the
// instantiation of the value codec, once per call.
func (c *chunk) SpMVBatch(y, x []float64, k int) {
	if k <= 0 {
		panic(core.Usagef("csrdu: batch with non-positive vector count %d", k))
	}
	if c.startMark < 0 || c.ctlLo >= c.ctlHi {
		clear(y[c.lo*k : c.hi*k])
		return
	}
	var units int
	switch m := c.m; {
	case m.VI8 != nil:
		units = multiply(c, m.VI8, y, x, k)
	case m.VI16 != nil:
		units = multiply(c, m.VI16, y, x, k)
	case m.VI32 != nil:
		units = multiply(c, m.VI32, y, x, k)
	default:
		units = multiply(c, m.Values, y, x, k)
	}
	if k > 1 && batchDecodeHook != nil {
		batchDecodeHook(units)
	}
}

// multiply runs the kernel for panel width k over a chunk that holds at
// least one unit. k = 1 is the scalar kernel, whose operation order is
// the bitwise-k=1 contract of the panels. Returns the number of units a
// panel kernel decoded.
func multiply[V csrvi.Value](c *chunk, values []V, y, x []float64, k int) int {
	a := runArgs[V]{ctl: c.m.Ctl[:c.ctlHi], values: values[:c.valHi], unique: c.m.Unique, x: x, y: y}
	switch k {
	case 1:
		spmvScalar(c, &a)
		return 0
	case 4:
		return spmvBatch4(c, &a)
	case 8:
		return spmvPanel8(c, &a)
	}
	return spmvBatchK(c, &a, k)
}

// MaxUnit is the largest usize a unit header can carry, and so the
// capacity a DecodeUnit column buffer needs.
const MaxUnit = 255

// DecodeUnit expands the body of one unit — everything after the
// uflags/usize bytes and the optional rjmp — into absolute column
// indices: cols[0] is xi plus the unit's ujmp, each further entry adds
// one delta. len(cols) is the unit's usize. It returns the offset just
// past the unit and the last column, the next unit's starting position
// when that unit continues the row. The stream must have passed Verify.
//
// It is the unit decoder of the k=4 and generic-width panel kernels
// and of the k=8 dispatcher's RLE and u64 units; the scalar kernel and
// the k=8 run loop decode in line.
//
//go:noinline
func DecodeUnit(ctl []byte, pos int, flags byte, xi int, cols []int32) (next, last int) {
	j, pos := varint.DecodeAt(ctl, pos)
	xi += int(j)
	cols[0] = int32(xi)
	cols = cols[1:]
	if flags&FlagRLE != 0 {
		var d uint64
		d, pos = varint.DecodeAt(ctl, pos)
		for i := range cols {
			xi += int(d)
			cols[i] = int32(xi)
		}
		return pos, xi
	}
	cls := flags & TypeMask
	b := ctl[pos : pos+len(cols)<<cls]
	switch cls {
	case ClassU8:
		cols = cols[:len(b)]
		for i, d := range b {
			xi += int(d)
			cols[i] = int32(xi)
		}
	case ClassU16:
		for i := range cols {
			xi += int(binary.LittleEndian.Uint16(b[2*i:]))
			cols[i] = int32(xi)
		}
	case ClassU32:
		for i := range cols {
			xi += int(binary.LittleEndian.Uint32(b[4*i:]))
			cols[i] = int32(xi)
		}
	default:
		for i := range cols {
			xi += int(binary.LittleEndian.Uint64(b[8*i:]))
			cols[i] = int32(xi)
		}
	}
	return pos + len(b), xi
}

// shiftCols moves a decoded REP unit's columns to the next row of its
// run: one column right.
func shiftCols(cols []int32) {
	for i := range cols {
		cols[i]++
	}
}

// SkipRows handles a row jump in a panel of width k: it decodes the
// rjmp varint at pos and zeroes the empty panel rows the jump passes
// over. yi is the row after the one just stored; the returned row is
// where the unit that carried the jump lands.
func SkipRows(y []float64, k, yi int, ctl []byte, pos int) (row, next int) {
	skip, pos := varint.DecodeAt(ctl, pos)
	row = yi + int(skip) - 1
	clear(y[yi*k : row*k])
	return row, pos
}

// spmvBatch4 is the k=4 kernel: the four row accumulators stay in
// registers across a unit's FMA loop and are stored once per row.
// Returns the number of units decoded.
func spmvBatch4[V csrvi.Value](c *chunk, a *runArgs[V]) int {
	const k = 4
	ctl, values, unique, x := a.streams()
	y := a.y
	pos, vi := c.ctlLo, c.valLo
	var buf [MaxUnit]int32

	yi := c.m.marks[c.startMark].row
	clear(y[c.lo*k : yi*k])
	flags := ctl[pos]
	size := int(ctl[pos+1])
	pos += 2
	if flags&FlagRJMP != 0 {
		_, pos = varint.DecodeAt(ctl, pos)
	}
	xi := 0
	var s0, s1, s2, s3 float64

	for units := 1; ; units++ {
		cols := buf[:size]
		pos, xi = DecodeUnit(ctl, pos, flags, xi, cols)
		rep := 0
		if flags&FlagREP != 0 {
			rep, pos = int(ctl[pos]), pos+1
		}
		for {
			vals := values[vi : vi+size]
			vi += size
			cols = cols[:len(vals)]
			for p, iv := range vals {
				v := csrvi.Load(iv, unique)
				xr := x[int(cols[p])*k:]
				xr = xr[:k]
				s0 += v * xr[0]
				s1 += v * xr[1]
				s2 += v * xr[2]
				s3 += v * xr[3]
			}
			if rep == 0 {
				break
			}
			// A repeated row: store this one, shift the columns.
			yr := y[yi*k:]
			yr = yr[:k]
			yr[0], yr[1], yr[2], yr[3] = s0, s1, s2, s3
			s0, s1, s2, s3 = 0, 0, 0, 0
			yi++
			shiftCols(cols)
			rep--
		}

		if pos >= len(ctl) {
			yr := y[yi*k:]
			yr = yr[:k]
			yr[0], yr[1], yr[2], yr[3] = s0, s1, s2, s3
			clear(y[(yi+1)*k : c.hi*k])
			return units
		}
		flags = ctl[pos]
		size = int(ctl[pos+1])
		pos += 2
		if flags&FlagNR != 0 {
			yr := y[yi*k:]
			yr = yr[:k]
			yr[0], yr[1], yr[2], yr[3] = s0, s1, s2, s3
			s0, s1, s2, s3 = 0, 0, 0, 0
			xi = 0
			yi++
			if flags&FlagRJMP != 0 {
				yi, pos = SkipRows(y, k, yi, ctl, pos)
			}
		}
	}
}

// spmvPanel8 is the k=8 kernel, shaped like the scalar one (see
// spmvScalar): it decodes RLE and u64 units (DecodeUnit) and row
// jumps (SkipRows) itself and hands each run of u8, u16 and u32 units,
// with the row's sums in s, to spmvRunPanel8. Returns the number of
// units decoded.
func spmvPanel8[V csrvi.Value](c *chunk, a *runArgs[V]) int {
	const k = 8
	ctl, values, unique, x := a.streams()
	y := a.y
	pos, vi := c.ctlLo, c.valLo
	var buf [MaxUnit]int32
	var s [k]float64

	a.yi = c.m.marks[c.startMark].row
	clear(y[c.lo*k : a.yi*k])
	flags := ctl[pos]
	size := int(ctl[pos+1])
	pos += 2
	if flags&FlagRJMP != 0 {
		_, pos = varint.DecodeAt(ctl, pos)
	}
	xi, units := 0, 0

	for {
		// pos is at the ujmp of a unit whose header was flags, size.
		if flags&FlagREP != 0 {
			pos, vi = spmvRunRepPanel8(a, pos, vi, size, flags, &buf, &s)
			units++
		} else if flags&FlagRLE == 0 && flags&TypeMask != ClassU64 {
			var n int
			pos, vi, xi, n = spmvRunPanel8(a, pos, vi, xi, size, flags, &s)
			units += n
		} else {
			cols := buf[:size]
			pos, xi = DecodeUnit(ctl, pos, flags, xi, cols)
			vals := values[vi : vi+size]
			vi += size
			cols = cols[:len(vals)]
			for p, iv := range vals {
				v := csrvi.Load(iv, unique)
				xr := x[int(cols[p])*k:]
				xr = xr[:k]
				for c := range s {
					s[c] += v * xr[c]
				}
			}
			units++
		}

		if pos >= len(ctl) {
			break
		}
		flags = ctl[pos]
		size = int(ctl[pos+1])
		pos += 2
		if flags&FlagNR != 0 {
			copy(y[a.yi*k:(a.yi+1)*k], s[:])
			s = [k]float64{}
			xi = 0
			a.yi++
			if flags&FlagRJMP != 0 {
				a.yi, pos = SkipRows(y, k, a.yi, ctl, pos)
			}
		}
	}
	copy(y[a.yi*k:(a.yi+1)*k], s[:])
	clear(y[(a.yi+1)*k : c.hi*k])
	return units
}

// spmvRunPanel8 consumes a run of u8, u16 and u32 units of an 8-wide
// panel, switching on the class once per unit. Like the scalar run
// loops (see spmvRunU8) it takes pos at the ujmp of a unit whose header
// was flags and size, with the row's sums so far in s, and has no call
// inside, so the sums, pos, vi and xi stay in registers across units and
// rows; it returns the state, the sums in s and the number of units
// decoded at the first header of an RLE or u64 unit or with a row jump,
// or at the end of the stream. Each column loop multiplies at its head
// and reads the next column at its foot: the multiply-adds then share a
// basic block with the loop's phis, and Go's scheduler pairs each
// product with its add instead of issuing all eight products first,
// which needs more registers than SSE has.
//
//go:noinline
func spmvRunPanel8[V csrvi.Value](k *runArgs[V], pos, vi, xi, size int, flags byte, s *[8]float64) (int, int, int, int) {
	ctl, values, unique, x := k.streams()
	s0, s1, s2, s3, s4, s5, s6, s7 := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]
	units := 0
	for {
		units++
		var j int
		j, pos = decodeUjmp(ctl, pos)
		xi += j
		end := vi + size
		w, xr := csrvi.Load(values[vi], unique), x[8*xi:8*xi+8:8*xi+8]
		switch flags & TypeMask {
		case ClassU8:
			for {
				s0, s1, s2, s3 = s0+w*xr[0], s1+w*xr[1], s2+w*xr[2], s3+w*xr[3]
				s4, s5, s6, s7 = s4+w*xr[4], s5+w*xr[5], s6+w*xr[6], s7+w*xr[7]
				if vi++; vi == end {
					break
				}
				xi += int(ctl[pos])
				pos++
				w, xr = csrvi.Load(values[vi], unique), x[8*xi:8*xi+8:8*xi+8]
			}
		case ClassU16:
			for {
				s0, s1, s2, s3 = s0+w*xr[0], s1+w*xr[1], s2+w*xr[2], s3+w*xr[3]
				s4, s5, s6, s7 = s4+w*xr[4], s5+w*xr[5], s6+w*xr[6], s7+w*xr[7]
				if vi++; vi == end {
					break
				}
				xi += int(binary.LittleEndian.Uint16(ctl[pos : pos+2 : pos+2]))
				pos += 2
				w, xr = csrvi.Load(values[vi], unique), x[8*xi:8*xi+8:8*xi+8]
			}
		default: // ClassU32
			for {
				s0, s1, s2, s3 = s0+w*xr[0], s1+w*xr[1], s2+w*xr[2], s3+w*xr[3]
				s4, s5, s6, s7 = s4+w*xr[4], s5+w*xr[5], s6+w*xr[6], s7+w*xr[7]
				if vi++; vi == end {
					break
				}
				xi += int(binary.LittleEndian.Uint32(ctl[pos : pos+4 : pos+4]))
				pos += 4
				w, xr = csrvi.Load(values[vi], unique), x[8*xi:8*xi+8:8*xi+8]
			}
		}

		if pos >= len(ctl) {
			break
		}
		flags = ctl[pos]
		if flags&(FlagRLE|FlagRJMP|FlagREP) != 0 || flags&TypeMask == ClassU64 {
			break
		}
		size = int(ctl[pos+1])
		pos += 2
		if flags&FlagNR != 0 {
			yr := k.y[8*k.yi : 8*k.yi+8 : 8*k.yi+8]
			yr[0], yr[1], yr[2], yr[3] = s0, s1, s2, s3
			yr[4], yr[5], yr[6], yr[7] = s4, s5, s6, s7
			s0, s1, s2, s3, s4, s5, s6, s7 = 0, 0, 0, 0, 0, 0, 0, 0
			xi = 0
			k.yi++
		}
	}
	s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7] = s0, s1, s2, s3, s4, s5, s6, s7
	return pos, vi, xi, units
}

// spmvRunRepPanel8 is spmvRunRep for an 8-wide panel: it decodes the
// REP unit at pos once into offsets from its first column (into buf),
// then runs the run's rows with the eight sums in registers, row t
// reading the x panel rows at first+t+offset. It stores every row of
// the run but the last, whose sums it leaves in s with a.yi on that
// row, and returns pos past the count byte and vi past the run's
// values. As in spmvRunRep the run's values, x window and y rows are
// sliced once, and a row of up to eight columns is straight-line code
// that reads its offsets from buf at constant indices: a loop over the
// columns kept its counter on the stack, stored and reloaded every
// column. Longer rows loop over buf.
//
//go:noinline
func spmvRunRepPanel8[V csrvi.Value](a *runArgs[V], pos, vi, size int, flags byte, buf *[MaxUnit]int32, s *[8]float64) (int, int) {
	ctl, values, unique, x := a.streams()
	xi, off, pos := repOffsets(ctl, pos, flags, buf[:size])
	rows := int(ctl[pos])
	pos++
	n := (rows + 1) * size
	vals := values[vi : vi+n : vi+n]
	vi += n
	xw := x[8*xi : 8*(xi+rows+1+int(off[len(off)-1]))]
	yw := a.y[8*a.yi : 8*(a.yi+rows)]
	a.yi += rows
	for t := 0; ; t++ {
		v := vals[t*size : t*size+size]
		v = v[:len(off)]
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		w, xr := csrvi.Load(v[0], unique), xw[8*t:8*t+8:8*t+8]
		s0, s1, s2, s3 = s0+w*xr[0], s1+w*xr[1], s2+w*xr[2], s3+w*xr[3]
		s4, s5, s6, s7 = s4+w*xr[4], s5+w*xr[5], s6+w*xr[6], s7+w*xr[7]
		if len(v) > 8 {
			for j := 1; j < len(v); j++ {
				p := 8 * (t + int(off[j]))
				w, xr = csrvi.Load(v[j], unique), xw[p:p+8:p+8]
				s0, s1, s2, s3 = s0+w*xr[0], s1+w*xr[1], s2+w*xr[2], s3+w*xr[3]
				s4, s5, s6, s7 = s4+w*xr[4], s5+w*xr[5], s6+w*xr[6], s7+w*xr[7]
			}
		} else if len(v) > 1 {
			p := 8 * (t + int(buf[1]))
			w, xr = csrvi.Load(v[1], unique), xw[p:p+8:p+8]
			s0, s1, s2, s3 = s0+w*xr[0], s1+w*xr[1], s2+w*xr[2], s3+w*xr[3]
			s4, s5, s6, s7 = s4+w*xr[4], s5+w*xr[5], s6+w*xr[6], s7+w*xr[7]
			if len(v) > 2 {
				p := 8 * (t + int(buf[2]))
				w, xr = csrvi.Load(v[2], unique), xw[p:p+8:p+8]
				s0, s1, s2, s3 = s0+w*xr[0], s1+w*xr[1], s2+w*xr[2], s3+w*xr[3]
				s4, s5, s6, s7 = s4+w*xr[4], s5+w*xr[5], s6+w*xr[6], s7+w*xr[7]
				if len(v) > 3 {
					p := 8 * (t + int(buf[3]))
					w, xr = csrvi.Load(v[3], unique), xw[p:p+8:p+8]
					s0, s1, s2, s3 = s0+w*xr[0], s1+w*xr[1], s2+w*xr[2], s3+w*xr[3]
					s4, s5, s6, s7 = s4+w*xr[4], s5+w*xr[5], s6+w*xr[6], s7+w*xr[7]
					if len(v) > 4 {
						p := 8 * (t + int(buf[4]))
						w, xr = csrvi.Load(v[4], unique), xw[p:p+8:p+8]
						s0, s1, s2, s3 = s0+w*xr[0], s1+w*xr[1], s2+w*xr[2], s3+w*xr[3]
						s4, s5, s6, s7 = s4+w*xr[4], s5+w*xr[5], s6+w*xr[6], s7+w*xr[7]
						if len(v) > 5 {
							p := 8 * (t + int(buf[5]))
							w, xr = csrvi.Load(v[5], unique), xw[p:p+8:p+8]
							s0, s1, s2, s3 = s0+w*xr[0], s1+w*xr[1], s2+w*xr[2], s3+w*xr[3]
							s4, s5, s6, s7 = s4+w*xr[4], s5+w*xr[5], s6+w*xr[6], s7+w*xr[7]
							if len(v) > 6 {
								p := 8 * (t + int(buf[6]))
								w, xr = csrvi.Load(v[6], unique), xw[p:p+8:p+8]
								s0, s1, s2, s3 = s0+w*xr[0], s1+w*xr[1], s2+w*xr[2], s3+w*xr[3]
								s4, s5, s6, s7 = s4+w*xr[4], s5+w*xr[5], s6+w*xr[6], s7+w*xr[7]
								if len(v) > 7 {
									p := 8 * (t + int(buf[7]))
									w, xr = csrvi.Load(v[7], unique), xw[p:p+8:p+8]
									s0, s1, s2, s3 = s0+w*xr[0], s1+w*xr[1], s2+w*xr[2], s3+w*xr[3]
									s4, s5, s6, s7 = s4+w*xr[4], s5+w*xr[5], s6+w*xr[6], s7+w*xr[7]
								}
							}
						}
					}
				}
			}
		}
		if t == rows {
			s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7] = s0, s1, s2, s3, s4, s5, s6, s7
			return pos, vi
		}
		yr := yw[8*t : 8*t+8 : 8*t+8]
		yr[0], yr[1], yr[2], yr[3] = s0, s1, s2, s3
		yr[4], yr[5], yr[6], yr[7] = s4, s5, s6, s7
	}
}

// StackPanel is the widest panel whose accumulator row the generic-width
// kernel (spmvBatchK) keeps on its stack; wider ones allocate.
const StackPanel = 16

// spmvBatchK is the generic-width kernel: one accumulator row of k
// sums, copied into the output panel on each row change. Returns the
// number of units decoded.
func spmvBatchK[V csrvi.Value](c *chunk, a *runArgs[V], k int) int {
	ctl, values, unique, x := a.streams()
	y := a.y
	pos, vi := c.ctlLo, c.valLo
	var buf [MaxUnit]int32
	var accBuf [StackPanel]float64
	acc := accBuf[:]
	if k <= StackPanel {
		acc = acc[:k]
	} else {
		acc = make([]float64, k)
	}

	yi := c.m.marks[c.startMark].row
	clear(y[c.lo*k : yi*k])
	flags := ctl[pos]
	size := int(ctl[pos+1])
	pos += 2
	if flags&FlagRJMP != 0 {
		_, pos = varint.DecodeAt(ctl, pos)
	}
	xi := 0

	for units := 1; ; units++ {
		cols := buf[:size]
		pos, xi = DecodeUnit(ctl, pos, flags, xi, cols)
		rep := 0
		if flags&FlagREP != 0 {
			rep, pos = int(ctl[pos]), pos+1
		}
		for {
			vals := values[vi : vi+size]
			vi += size
			cols = cols[:len(vals)]
			// The decoded unit is walked once per block of four
			// columns, whose sums stay in registers for the walk, then
			// once per leftover column.
			c0 := 0
			for ; c0+4 <= k; c0 += 4 {
				a := acc[c0 : c0+4 : c0+4]
				s0, s1, s2, s3 := a[0], a[1], a[2], a[3]
				for p, iv := range vals {
					v := csrvi.Load(iv, unique)
					xr := x[int(cols[p])*k+c0:]
					xr = xr[:4]
					s0 += v * xr[0]
					s1 += v * xr[1]
					s2 += v * xr[2]
					s3 += v * xr[3]
				}
				a[0], a[1], a[2], a[3] = s0, s1, s2, s3
			}
			for ; c0 < k; c0++ {
				s := acc[c0]
				for p, v := range vals {
					s += csrvi.Load(v, unique) * x[int(cols[p])*k+c0]
				}
				acc[c0] = s
			}
			if rep == 0 {
				break
			}
			// A repeated row: store this one, shift the columns.
			copy(y[yi*k:(yi+1)*k], acc)
			clear(acc)
			yi++
			shiftCols(cols)
			rep--
		}

		if pos >= len(ctl) {
			copy(y[yi*k:(yi+1)*k], acc)
			clear(y[(yi+1)*k : c.hi*k])
			return units
		}
		flags = ctl[pos]
		size = int(ctl[pos+1])
		pos += 2
		if flags&FlagNR != 0 {
			copy(y[yi*k:(yi+1)*k], acc)
			clear(acc)
			xi = 0
			yi++
			if flags&FlagRJMP != 0 {
				yi, pos = SkipRows(y, k, yi, ctl, pos)
			}
		}
	}
}
