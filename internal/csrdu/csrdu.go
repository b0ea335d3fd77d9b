// Package csrdu implements CSR-DU (CSR Delta Unit), the index
// compression scheme of the paper's §IV.
//
// The col_ind array of CSR is replaced by a byte stream called ctl.
// The matrix is divided into units — runs of non-zeros within one row —
// and each unit stores its column information as deltas between
// consecutive column indices, using the narrowest of 1/2/4/8-byte
// integers that fits every delta in the unit. Each unit contributes to
// ctl:
//
//	uflags  1 byte   delta width (bits 0-1), NR new-row flag (bit 6),
//	                 RJMP multi-row jump flag (bit 5), RLE flag (bit 7)
//	usize   1 byte   number of non-zeros in the unit (1..255)
//	[rjmp]  varint   rows skipped, present only when RJMP is set
//	ujmp    varint   column distance from the previous position
//	ucis    usize-1 fixed-width deltas (absent for RLE units, which
//	                 instead store one varint: the constant delta)
//
// Because the width is fixed per unit, the SpMV kernel decodes with a
// single switch per unit and tight branch-free inner loops — the paper's
// answer to DCSR's per-element decode branches. Units never span rows.
//
// Two decoders of the grammar sit under the multiplication kernels. The
// scalar kernel ((*chunk).SpMV, decode.go) decodes in line — a
// dispatcher hands each run of same-class units to that class's loop,
// which keeps its state in registers, reads an unrolled ujmp varint and
// loads deltas in blocks — because at one multiply-add per delta the
// decode is the kernel. The panel kernels (batch.go), here and in csrduvi,
// share DecodeUnit, which expands one unit into column indices. ForEach
// is the plain walk the tests hold both against. The kernels keep two
// invariants: a row's products are summed left to right in stream
// order, and a chunk writes exactly its own rows.
//
// The RLE unit type is the constant-delta extension from the authors'
// companion paper (CF'08, reference [8]); it is off by default and
// enabled with Options.RLE.
package csrdu

import (
	"fmt"
	"math"

	"spmv/internal/core"
	"spmv/internal/partition"
	"spmv/internal/varint"
)

// uflags bits.
const (
	TypeMask = 0x03 // bits 0-1: log2 of delta width in bytes
	FlagRJMP = 0x20 // a varint row jump follows usize (NR must be set)
	FlagNR   = 0x40 // unit starts a new row
	FlagRLE  = 0x80 // constant-delta unit: one varint delta, no ucis
)

// Delta width classes.
const (
	ClassU8 = iota
	ClassU16
	ClassU32
	ClassU64
)

// Options control the encoder.
type Options struct {
	// RLE enables constant-delta run units (CSR-DU+RLE).
	RLE bool
	// RLEMin is the minimum run length (in non-zeros) for an RLE unit.
	// Zero means the default of 6.
	RLEMin int
	// MinSwitch is the unit length below which the encoder widens the
	// current unit's delta class instead of starting a new unit when it
	// meets a wider delta. Zero means the default of 4. Larger values
	// produce fewer, wider units; smaller values produce more, tighter
	// units.
	MinSwitch int
	// Workers is the number of concurrent encoder workers. 0 or 1
	// encodes serially (the zero value keeps the historical behaviour);
	// n > 1 uses n workers; negative means GOMAXPROCS. The parallel
	// encoder's output is byte-identical to the serial encoder's, so
	// Workers is purely a construction-time knob. Small matrices encode
	// serially regardless.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.RLEMin == 0 {
		o.RLEMin = 6
	}
	if o.MinSwitch == 0 {
		o.MinSwitch = 4
	}
	return o
}

// Matrix is a sparse matrix in CSR-DU form.
type Matrix struct {
	rows, cols int
	Ctl        []byte
	Values     []float64
	opts       Options

	// marks locate the first unit of every non-empty row; they exist
	// only to support partitioning and are not part of the working set
	// (a production encoder would emit per-thread streams directly, as
	// the paper describes).
	marks []mark

	ctlBase, valBase uint64
}

type mark struct {
	row int // matrix row
	ctl int // offset of the row's first unit in Ctl
	val int // offset of the row's first value in Values
}

var (
	_ core.Format   = (*Matrix)(nil)
	_ core.Splitter = (*Matrix)(nil)
	_ core.Placer   = (*Matrix)(nil)
)

// FromCOO encodes a triplet matrix into CSR-DU with default options.
func FromCOO(c *core.COO) (*Matrix, error) { return FromCOOOpts(c, Options{}) }

// FromCOOOpts encodes a triplet matrix into CSR-DU. The COO is finalized
// in place if needed. Encoding is a single O(nnz) scan, matching the
// paper's claim that construction has no asymptotic overhead over CSR;
// Options.Workers spreads that scan over concurrent row-block encoders
// with byte-identical output.
func FromCOOOpts(c *core.COO, opts Options) (*Matrix, error) {
	if opts.Workers != 0 && opts.Workers != 1 {
		return fromCOOParallel(c, opts)
	}
	return fromCOOSerial(c, opts)
}

// fromCOOSerial is the single-threaded encoder.
func fromCOOSerial(c *core.COO, opts Options) (*Matrix, error) {
	c.Finalize()
	if c.Len() > math.MaxInt32 {
		return nil, fmt.Errorf("csrdu: %d non-zeros exceed supported range", c.Len())
	}
	return encodeBlock(c, 0, c.Len(), -1, opts), nil
}

// encodeBlock encodes entries [from, to) — whole rows — into a
// standalone Matrix whose marks carry absolute row numbers. prevRow is
// the last non-empty row before the block (-1 for the first block), so
// the block's first row jump matches the serial encoding. The rows'
// columns are read in place from the finalized COO, so the encoder
// allocates the output streams and nothing per row or unit.
func encodeBlock(c *core.COO, from, to, prevRow int, opts Options) *Matrix {
	ctlCap := to - from + 16
	if from < to {
		ctlCap += int(c.I[to-1]-c.I[from]) / 4
	}
	m := &Matrix{
		rows: c.Rows(), cols: c.Cols(), opts: opts.withDefaults(),
		Values: make([]float64, to-from),
		Ctl:    make([]byte, 0, ctlCap),
	}
	copy(m.Values, c.V[from:to])
	enc := encoder{m: m, prevRow: prevRow}
	for k := from; k < to; {
		row := c.I[k]
		end := k + 1
		for end < to && c.I[end] == row {
			end++
		}
		enc.encodeRow(int(row), k-from, c.J[k:end])
		k = end
	}
	return m
}

// encoder carries per-matrix encoding state.
type encoder struct {
	m       *Matrix
	prevRow int
}

// encodeRow emits the units of one non-empty row. cols are the sorted
// column indices of the row's non-zeros, and val is the offset of its
// first value in Values.
func (e *encoder) encodeRow(row, val int, cols []int32) {
	m := e.m
	opts := m.opts
	m.marks = append(m.marks, mark{row: row, ctl: len(m.Ctl), val: val})

	newRow := true
	prevCol := int32(0) // x_indx resets to 0 on NR
	t := 0
	for t < len(cols) {
		// Candidate RLE run: elements t.. with equal deltas.
		if opts.RLE {
			run := 1
			for t+run < len(cols) && run < 255 &&
				cols[t+run]-cols[t+run-1] == cols[t+1]-cols[t] {
				run++
			}
			if run >= opts.RLEMin {
				delta := uint64(cols[t+1] - cols[t])
				e.emitUnit(FlagRLE, run, newRow, row, uint64(cols[t]-prevCol), nil, delta)
				prevCol = cols[t+run-1]
				t += run
				newRow = false
				continue
			}
		}
		// Normal unit: greedy class extension.
		start := t
		cls := ClassU8
		t++ // first element is carried by ujmp, not ucis
		for t < len(cols) && t-start < 255 {
			if opts.RLE {
				// Stop before a viable RLE run so it gets its own unit.
				run := 1
				for t+run < len(cols) && run < 255 &&
					cols[t+run]-cols[t+run-1] == cols[t+1]-cols[t] {
					run++
				}
				if run >= opts.RLEMin {
					break
				}
			}
			c := deltaClass(uint64(cols[t] - cols[t-1]))
			if c > cls {
				if t-start >= opts.MinSwitch {
					break // close unit; wider deltas start fresh
				}
				cls = c // unit still small: widen instead of splitting
			}
			t++
		}
		e.emitUnit(byte(cls), t-start, newRow, row, uint64(cols[start]-prevCol), cols[start:t], 0)
		prevCol = cols[t-1]
		newRow = false
	}
	e.prevRow = row
}

// emitUnit writes one unit's bytes. A normal unit passes its columns
// in cols and stores the size-1 deltas between them; an RLE unit passes
// FlagRLE in flags, nil cols and the constant delta in rleDelta.
func (e *encoder) emitUnit(flags byte, size int, newRow bool, row int, ujmp uint64, cols []int32, rleDelta uint64) {
	m := e.m
	var rjmp uint64
	if newRow {
		flags |= FlagNR
		skip := row - e.prevRow
		if skip > 1 {
			flags |= FlagRJMP
			rjmp = uint64(skip)
		}
	}
	m.Ctl = append(m.Ctl, flags, byte(size))
	if flags&FlagRJMP != 0 {
		m.Ctl = varint.Append(m.Ctl, rjmp)
	}
	m.Ctl = varint.Append(m.Ctl, ujmp)
	if flags&FlagRLE != 0 {
		m.Ctl = varint.Append(m.Ctl, rleDelta)
		return
	}
	switch flags & TypeMask {
	case ClassU8:
		for k := 1; k < len(cols); k++ {
			m.Ctl = append(m.Ctl, byte(cols[k]-cols[k-1]))
		}
	case ClassU16:
		for k := 1; k < len(cols); k++ {
			d := cols[k] - cols[k-1]
			m.Ctl = append(m.Ctl, byte(d), byte(d>>8))
		}
	case ClassU32:
		for k := 1; k < len(cols); k++ {
			d := cols[k] - cols[k-1]
			m.Ctl = append(m.Ctl, byte(d), byte(d>>8), byte(d>>16), byte(d>>24))
		}
	default:
		for k := 1; k < len(cols); k++ {
			d := uint64(cols[k] - cols[k-1])
			m.Ctl = append(m.Ctl,
				byte(d), byte(d>>8), byte(d>>16), byte(d>>24),
				byte(d>>32), byte(d>>40), byte(d>>48), byte(d>>56))
		}
	}
}

// deltaClass returns the narrowest width class that holds d.
func deltaClass(d uint64) int {
	switch {
	case d < 1<<8:
		return ClassU8
	case d < 1<<16:
		return ClassU16
	case d < 1<<32:
		return ClassU32
	default:
		return ClassU64
	}
}

// RowMark locates the first unit of a non-empty row within the ctl and
// values streams. The marks are exposed so that derived formats (the
// combined CSR-DU-VI) can partition and anchor their own decoders on
// the same stream.
type RowMark struct {
	Row int // matrix row
	Ctl int // offset of the row's first unit in Ctl
	Val int // offset of the row's first value in Values
}

// RowMarks returns one mark per non-empty row, in row order.
func (m *Matrix) RowMarks() []RowMark {
	out := make([]RowMark, len(m.marks))
	for i, mk := range m.marks {
		out[i] = RowMark{Row: mk.row, Ctl: mk.ctl, Val: mk.val}
	}
	return out
}

// Name implements core.Format.
func (m *Matrix) Name() string {
	if m.opts.RLE {
		return "csr-du-rle"
	}
	return "csr-du"
}

// Rows implements core.Format.
func (m *Matrix) Rows() int { return m.rows }

// Cols implements core.Format.
func (m *Matrix) Cols() int { return m.cols }

// NNZ implements core.Format.
func (m *Matrix) NNZ() int { return len(m.Values) }

// SizeBytes implements core.Format: the ctl stream plus the values.
func (m *Matrix) SizeBytes() int64 {
	return int64(len(m.Ctl)) + int64(len(m.Values))*core.ValSize
}

// SpMV computes y = A*x.
func (m *Matrix) SpMV(y, x []float64) {
	(&chunk{m: m, lo: 0, hi: m.rows, ctlLo: 0, ctlHi: len(m.Ctl),
		valLo: 0, valHi: len(m.Values), startMark: 0}).SpMV(y, x)
}

// Split implements core.Splitter: nnz-balanced partitioning at row
// boundaries (every row boundary is a unit boundary, so each thread gets
// an offset into ctl, values and y — exactly the per-thread state the
// paper describes).
func (m *Matrix) Split(n int) []core.Chunk {
	if len(m.marks) == 0 {
		if m.rows == 0 {
			return nil
		}
		// All-empty matrix: one chunk that just zeroes y.
		return []core.Chunk{&chunk{m: m, lo: 0, hi: m.rows, startMark: -1}}
	}
	prefix := make([]int64, len(m.marks)+1)
	for i, mk := range m.marks {
		prefix[i] = int64(mk.val)
	}
	prefix[len(m.marks)] = int64(len(m.Values))
	bounds := partition.SplitPrefix(prefix, n)
	var chunks []core.Chunk
	for i := 0; i+1 < len(bounds); i++ {
		a, b := bounds[i], bounds[i+1]
		if a == b {
			continue
		}
		ch := &chunk{m: m, startMark: a}
		ch.lo = m.marks[a].row
		ch.ctlLo = m.marks[a].ctl
		ch.valLo = m.marks[a].val
		if b < len(m.marks) {
			ch.hi = m.marks[b].row
			ch.ctlHi = m.marks[b].ctl
			ch.valHi = m.marks[b].val
		} else {
			ch.hi = m.rows
			ch.ctlHi = len(m.Ctl)
			ch.valHi = len(m.Values)
		}
		if len(chunks) == 0 {
			ch.lo = 0 // cover leading empty rows
		}
		chunks = append(chunks, ch)
	}
	return chunks
}
