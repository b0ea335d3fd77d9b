package csrdu

import (
	"encoding/binary"

	"spmv/internal/core"
	"spmv/internal/varint"
)

// Batched SpMV (SpMM) for CSR-DU: the ctl bytecode is decoded once per
// unit and the decoded deltas drive k FMA columns. Decode work — the
// price CSR-DU pays for its smaller stream — is a per-multiplication
// cost, so batching amortizes it together with the stream bytes: per
// vector, both fall by 1/k.
//
// "Once per unit" is literal: DecodeUnit expands a unit into its column
// indices, and the panel kernels run their FMA columns off that buffer.
// The walk over unit headers has the scalar kernel's shape (see
// (*chunk).SpMV): the first header is peeled, a panel row is stored
// once when the next row's header arrives, and the rows no unit touches
// are zeroed where they are skipped, so only rows [lo, hi) are written.

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
func (m *Matrix) SpMVBatch(y, x []float64, k int) {
	(&chunk{m: m, lo: 0, hi: m.rows, ctlLo: 0, ctlHi: len(m.Ctl),
		valLo: 0, valHi: len(m.Values), startMark: 0}).SpMVBatch(y, x, k)
}

// SpMVBatch implements core.BatchChunk: only panel rows [lo, hi) are
// written, so disjoint chunks may run concurrently.
func (c *chunk) SpMVBatch(y, x []float64, k int) {
	switch {
	case k == 1:
		// The panel degenerates to the vector; the scalar kernel's
		// operation order is the bitwise-k=1 contract.
		c.SpMV(y, x)
		return
	case k <= 0:
		panic(core.Usagef("csrdu: batch with non-positive vector count %d", k))
	}
	if c.startMark < 0 || c.ctlLo >= c.ctlHi {
		clear(y[c.lo*k : c.hi*k])
		return
	}
	var units int
	switch k {
	case 4:
		units = c.spmvBatch4(y, x)
	case 8:
		units = c.spmvBatch8(y, x)
	default:
		units = c.spmvBatchK(y, x, k)
	}
	if batchDecodeHook != nil {
		batchDecodeHook(units)
	}
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
// It is the one decoder of the unit grammar the panel kernels of this
// package and of csrduvi share; the scalar kernels decode in line.
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
func (c *chunk) spmvBatch4(y, x []float64) int {
	const k = 4
	m := c.m
	ctl := m.Ctl[:c.ctlHi]
	values := m.Values[:c.valHi]
	pos, vi := c.ctlLo, c.valLo
	var buf [MaxUnit]int32

	yi := m.marks[c.startMark].row
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
		vals := values[vi : vi+size]
		vi += size
		cols = cols[:len(vals)]
		for p, v := range vals {
			xr := x[int(cols[p])*k:]
			xr = xr[:k]
			s0 += v * xr[0]
			s1 += v * xr[1]
			s2 += v * xr[2]
			s3 += v * xr[3]
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

// spmvBatch8 is the k=8 kernel, spmvBatch4 with eight register
// accumulators — the widest panel whose sums still fit the register
// file next to the loop's own state.
func (c *chunk) spmvBatch8(y, x []float64) int {
	const k = 8
	m := c.m
	ctl := m.Ctl[:c.ctlHi]
	values := m.Values[:c.valHi]
	pos, vi := c.ctlLo, c.valLo
	var buf [MaxUnit]int32

	yi := m.marks[c.startMark].row
	clear(y[c.lo*k : yi*k])
	flags := ctl[pos]
	size := int(ctl[pos+1])
	pos += 2
	if flags&FlagRJMP != 0 {
		_, pos = varint.DecodeAt(ctl, pos)
	}
	xi := 0
	var s0, s1, s2, s3, s4, s5, s6, s7 float64

	for units := 1; ; units++ {
		cols := buf[:size]
		pos, xi = DecodeUnit(ctl, pos, flags, xi, cols)
		vals := values[vi : vi+size]
		vi += size
		cols = cols[:len(vals)]
		for p, v := range vals {
			xr := x[int(cols[p])*k:]
			xr = xr[:k]
			s0 += v * xr[0]
			s1 += v * xr[1]
			s2 += v * xr[2]
			s3 += v * xr[3]
			s4 += v * xr[4]
			s5 += v * xr[5]
			s6 += v * xr[6]
			s7 += v * xr[7]
		}

		if pos >= len(ctl) {
			yr := y[yi*k:]
			yr = yr[:k]
			yr[0], yr[1], yr[2], yr[3] = s0, s1, s2, s3
			yr[4], yr[5], yr[6], yr[7] = s4, s5, s6, s7
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
			yr[4], yr[5], yr[6], yr[7] = s4, s5, s6, s7
			s0, s1, s2, s3, s4, s5, s6, s7 = 0, 0, 0, 0, 0, 0, 0, 0
			xi = 0
			yi++
			if flags&FlagRJMP != 0 {
				yi, pos = SkipRows(y, k, yi, ctl, pos)
			}
		}
	}
}

// StackPanel is the widest panel whose accumulator row the generic-width
// kernels (spmvBatchK here, csrduvi's) keep on their stack; wider ones
// allocate.
const StackPanel = 16

// spmvBatchK is the generic-width kernel: one accumulator row of k
// sums, copied into the output panel on each row change. Returns the
// number of units decoded.
func (c *chunk) spmvBatchK(y, x []float64, k int) int {
	m := c.m
	ctl := m.Ctl[:c.ctlHi]
	values := m.Values[:c.valHi]
	pos, vi := c.ctlLo, c.valLo
	var buf [MaxUnit]int32
	var accBuf [StackPanel]float64
	acc := accBuf[:]
	if k <= StackPanel {
		acc = acc[:k]
	} else {
		acc = make([]float64, k)
	}

	yi := m.marks[c.startMark].row
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
		vals := values[vi : vi+size]
		vi += size
		cols = cols[:len(vals)]
		// The decoded unit is walked once per block of four columns,
		// whose sums stay in registers for the walk, then once per
		// leftover column.
		c0 := 0
		for ; c0+4 <= k; c0 += 4 {
			a := acc[c0 : c0+4 : c0+4]
			s0, s1, s2, s3 := a[0], a[1], a[2], a[3]
			for p, v := range vals {
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
				s += v * x[int(cols[p])*k+c0]
			}
			acc[c0] = s
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
