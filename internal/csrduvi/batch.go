package csrduvi

import (
	"spmv/internal/core"
	"spmv/internal/csrdu"
	"spmv/internal/varint"
)

// Batched SpMV (SpMM) for CSR-DU-VI: one pass decodes each ctl unit
// once and looks each val_ind entry up once, and the resulting columns
// and values feed k FMA columns. Both decode overheads — the index
// side's and the value side's — become per-multiplication costs,
// amortized over the panel.

var (
	_ core.BatchFormat = (*Matrix)(nil)
	_ core.BatchChunk  = (*chunk)(nil)
)

// batchDecodeHook, when non-nil, receives the number of ctl units one
// batch-kernel call decoded (units == Stats().Units across a full
// matrix, regardless of k). Nil outside tests; the kernel pays one nil
// check per call.
var batchDecodeHook func(units int)

// SpMVBatch implements core.BatchFormat. len(x) >= Cols()*k,
// len(y) >= Rows()*k; k = 1 is bitwise identical to SpMV.
func (m *Matrix) SpMVBatch(y, x []float64, k int) {
	(&chunk{m: m, lo: 0, hi: m.Rows(), ctlLo: 0, ctlHi: len(m.du.Ctl),
		valLo: 0, valHi: m.NNZ(), startMark: 0}).SpMVBatch(y, x, k)
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
		panic(core.Usagef("csrduvi: batch with non-positive vector count %d", k))
	}
	if c.startMark < 0 || c.ctlLo >= c.ctlHi {
		clear(y[c.lo*k : c.hi*k])
		return
	}
	var units int
	switch {
	case c.m.VI8 != nil:
		units = spmvBatchDUVI(c, c.m.VI8, y, x, k)
	case c.m.VI16 != nil:
		units = spmvBatchDUVI(c, c.m.VI16, y, x, k)
	default:
		units = spmvBatchDUVI(c, c.m.VI32, y, x, k)
	}
	if batchDecodeHook != nil {
		batchDecodeHook(units)
	}
}

// spmvBatchDUVI is csrdu's generic-width panel kernel with one more
// stage per unit: csrdu.DecodeUnit expands the unit's columns, the
// unit's values are gathered through the unique table into a buffer,
// and the FMA columns run off the two buffers. It returns the number of
// units decoded. The chunk must hold at least one unit.
func spmvBatchDUVI[I uint8 | uint16 | uint32](c *chunk, ind []I, y, x []float64, k int) int {
	m := c.m
	ctl := m.du.Ctl[:c.ctlHi]
	unique := m.Unique
	ind = ind[:c.valHi]
	pos, vi := c.ctlLo, c.valLo
	var colBuf [csrdu.MaxUnit]int32
	var valBuf [csrdu.MaxUnit]float64
	var accBuf [csrdu.StackPanel]float64
	acc := accBuf[:]
	if k <= csrdu.StackPanel {
		acc = acc[:k]
	} else {
		acc = make([]float64, k)
	}

	yi := m.marks[c.startMark].Row
	clear(y[c.lo*k : yi*k])
	flags := ctl[pos]
	size := int(ctl[pos+1])
	pos += 2
	if flags&csrdu.FlagRJMP != 0 {
		_, pos = varint.DecodeAt(ctl, pos)
	}
	xi := 0

	for units := 1; ; units++ {
		cols := colBuf[:size]
		pos, xi = csrdu.DecodeUnit(ctl, pos, flags, xi, cols)
		vals := valBuf[:len(cols)]
		for p, ix := range ind[vi : vi+size] {
			vals[p] = unique[ix]
		}
		vi += size
		// As in csrdu's spmvBatchK: one walk per block of four columns
		// with the sums in registers, then one per leftover column.
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
		if flags&csrdu.FlagNR != 0 {
			copy(y[yi*k:(yi+1)*k], acc)
			clear(acc)
			xi = 0
			yi++
			if flags&csrdu.FlagRJMP != 0 {
				yi, pos = csrdu.SkipRows(y, k, yi, ctl, pos)
			}
		}
	}
}
