package csrdu

import (
	"spmv/internal/core"
	"spmv/internal/varint"
)

// Compute-cost model: CSR-DU trades CPU work for bandwidth. Each
// non-zero costs the CSR work plus the delta add; each unit costs a
// decode switch. The costs are attached to the per-nnz x gathers and to
// the ctl stream lines respectively.
// The per-element cost matches CSR's: the paper's point is that unit
// decoding adds only one branch per unit, so the per-element delta add
// disappears into the same multiply-accumulate slot.
// The dictionary codec adds the table lookup to every element.
const (
	duCompPerNNZ   = 3
	duviCompPerNNZ = 5
	duCompPerUnit  = 8
)

// Place implements core.Placer: ctl, the value stream (values or
// val_ind) and, under the dictionary codec, the unique table.
func (m *Matrix) Place(a *core.Arena) {
	m.ctlBase = a.Alloc(int64(len(m.Ctl)))
	m.valBase = a.Alloc(int64(len(m.Values))*8 + m.ValIndBytes())
	if m.IndexWidth() != 0 {
		m.uniqBase = a.Alloc(int64(len(m.Unique)) * 8)
	}
}

// TraceSpMV implements core.Tracer: it replays the kernel's memory
// stream — the ctl bytes and the value stream are sequential (coalesced
// to lines), the x gathers and unique-table lookups are per non-zero,
// y stores once per row.
func (c *chunk) TraceSpMV(xBase, yBase uint64, emit core.EmitFunc) {
	m := c.m
	if m.ctlBase == 0 && len(m.Ctl) > 0 {
		panic(core.Usagef("csrdu: TraceSpMV before Place"))
	}
	if c.startMark < 0 {
		return
	}
	ctl := m.Ctl
	cs := core.NewStreamCursor(m.ctlBase)
	vs := core.NewStreamCursor(m.valBase)
	yw := core.NewStreamCursor(yBase)

	pos := c.ctlLo
	vi := c.valLo
	yi := -1
	xi := 0
	first := true
	var cols []int // the columns of the unit being traced
	w, comp := int64(8), uint16(duCompPerNNZ)
	iw := m.IndexWidth()
	if iw != 0 {
		w, comp = int64(iw), duviCompPerNNZ
	}
	touchX := func() {
		vs.Touch(emit, int64(vi)*w, int(w), false, 0)
		if iw != 0 {
			emit(core.Access{Addr: m.uniqBase + m.index(vi)*8, Size: 8})
		}
		emit(core.Access{Addr: xBase + uint64(xi)*8, Size: 8, Comp: comp})
		vi++
	}
	for pos < c.ctlHi {
		unitStart := pos
		flags := ctl[pos]
		size := int(ctl[pos+1])
		pos += 2
		if flags&FlagNR != 0 {
			var skip uint64 = 1
			if flags&FlagRJMP != 0 {
				skip, pos = varint.DecodeAt(ctl, pos)
			}
			if first {
				yi = m.marks[c.startMark].row
				first = false
			} else {
				yw.Touch(emit, int64(yi)*8, 8, true, 0)
				yi += int(skip)
			}
			xi = 0
		}
		var j uint64
		j, pos = varint.DecodeAt(ctl, pos)
		xi += int(j)
		cs.Touch(emit, int64(unitStart), 1, false, duCompPerUnit)
		if flags&FlagRLE != 0 {
			touchX()
			var d uint64
			d, pos = varint.DecodeAt(ctl, pos)
			for k := 1; k < size; k++ {
				xi += int(d)
				touchX()
			}
			continue
		}
		cls := uint(flags & TypeMask)
		cols = append(cols[:0], xi)
		touchX()
		for k := 1; k < size; k++ {
			cs.Touch(emit, int64(pos), 1<<cls, false, 0)
			xi += int(leUint(ctl[pos:], cls))
			pos += 1 << cls
			cols = append(cols, xi)
			touchX()
		}
		if flags&FlagREP == 0 {
			continue
		}
		// A REP unit's repeated rows read no ctl past its count byte:
		// each is its values, its x gathers at the shifted columns and
		// its y store.
		cs.Touch(emit, int64(pos), 1, false, 0)
		rep := int(ctl[pos])
		pos++
		for t := 1; t <= rep; t++ {
			yw.Touch(emit, int64(yi)*8, 8, true, 0)
			yi++
			for _, j := range cols {
				xi = j + t
				touchX()
			}
		}
	}
	if !first {
		yw.Touch(emit, int64(yi)*8, 8, true, 0)
	}
}
