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
//	uflags  1 byte   delta width (bits 0-1), REP repeat flag (bit 4),
//	                 RJMP multi-row jump flag (bit 5), NR new-row flag
//	                 (bit 6), RLE flag (bit 7); bits 2-3 are reserved
//	                 and must be zero
//	usize   1 byte   number of non-zeros in the unit (1..255)
//	[rjmp]  varint   rows skipped, present only when RJMP is set
//	ujmp    varint   column distance from the previous position
//	ucis    usize-1 fixed-width deltas (absent for RLE units, which
//	                 instead store one varint: the constant delta)
//	[rep]   1 byte   rows repeated (1..255), present only when REP is set
//
// Because the width is fixed per unit, the SpMV kernel decodes with a
// single switch per unit and tight branch-free inner loops — the paper's
// answer to DCSR's per-element decode branches. Units never span rows,
// with one exception: a REP unit. It is a row's only unit (NR set, not
// RLE), and its count byte r says that the next r rows, which have no
// headers of their own, each hold this row's columns shifted right by
// their row distance from it — the repeated substructure the authors'
// CSX follow-up encodes, here the interior rows of a stencil, whose r
// rows then cost no index bytes and no decode. Their values follow the
// unit's in row order, (r+1)*usize in all. The encoder emits REP for
// the greedy longest run of exact repeats and always; a matrix with no
// repeating row encodes as it would without it. Row marks fall on unit
// headers only, so a partition never cuts a run.
//
// The values ride beside ctl in one of two codecs. The plain codec
// stores one float64 per non-zero (Values). The dictionary codec is
// the paper's §V value indexing on top of §IV's units — CSR-DU-VI, the
// combination the authors' companion paper explores (CF'08, reference
// [8]): Unique holds each distinct value once and one of VI8/VI16/VI32
// holds, per non-zero, the index of its value in the narrowest width
// that addresses Unique. FromCOOVI builds it; its Name is "csr-du-vi".
//
// Two decoders of the grammar sit under the multiplication kernels,
// and every kernel is generic over the value stream's element type
// (csrvi.Value), so one source serves both codecs. The scalar kernel
// (spmvScalar, decode.go) decodes in line — a dispatcher hands each
// run of same-class units to that class's loop, which keeps its state
// in registers, reads an unrolled ujmp varint and loads deltas in
// blocks — because at one multiply-add per delta the decode is the
// kernel. The k=8 panel kernel (batch.go), the width the server's
// coalescer fills, decodes in line the same way: a dispatcher hands
// each run of u8/u16/u32 units to one loop that keeps the eight row
// sums in registers across units and rows. Both dispatchers hand a REP
// unit to a fixed-offset loop (spmvRunRep, spmvRunRepPanel8) that
// decodes its columns once and then reads only values and x for each
// of its rows. The other panel kernels, and the k=8 dispatcher for its
// rare RLE and u64 units, share DecodeUnit, which expands one unit
// into column indices (shifted one column a row through a REP run).
// ForEach is the plain walk the tests hold them all against. The
// kernels keep two invariants: a row's products are summed left to
// right in stream order, and a chunk writes exactly its own rows.
//
// The RLE unit type is the constant-delta extension from the same
// companion paper; it is off by default and enabled with Options.RLE.
package csrdu

import (
	"fmt"
	"math"

	"spmv/internal/core"
	"spmv/internal/csrvi"
	"spmv/internal/partition"
	"spmv/internal/varint"
)

// uflags bits.
const (
	TypeMask = 0x03 // bits 0-1: log2 of delta width in bytes
	flagsRes = 0x0c // bits 2-3: reserved, zero in every valid stream
	FlagREP  = 0x10 // a row-count byte follows ucis (NR set, RLE clear)
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

// MaxRep is the largest row count a REP unit's count byte carries.
const MaxRep = 255

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

// Matrix is a sparse matrix in CSR-DU form. Under the plain codec
// Values holds the non-zeros; under the dictionary codec Values is nil,
// Unique holds the distinct values and exactly one of VI8/VI16/VI32
// holds an index into Unique per non-zero.
type Matrix struct {
	rows, cols int
	Ctl        []byte
	Values     []float64
	Unique     []float64
	VI8        []uint8
	VI16       []uint16
	VI32       []uint32
	opts       Options
	// plainVI marks a matrix loaded from a csr-du-vi container under the
	// plain value codec (FromRawPlainVI): it keeps that name, so it
	// writes back under the tag it was read from.
	plainVI bool

	// marks locate the first unit of every non-empty row; they exist
	// only to support partitioning and are not part of the working set
	// (a production encoder would emit per-thread streams directly, as
	// the paper describes).
	marks []mark

	ctlBase, valBase, uniqBase uint64
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
// paper's claim that construction has no asymptotic overhead over CSR.
func FromCOOOpts(c *core.COO, opts Options) (*Matrix, error) {
	c.Finalize()
	if c.Len() > math.MaxInt32 {
		return nil, fmt.Errorf("csrdu: %d non-zeros exceed supported range", c.Len())
	}
	return encode(c, opts), nil
}

// FromCOOVI encodes a triplet matrix into CSR-DU with the dictionary
// codec (CSR-DU-VI): the ctl stream FromCOOOpts writes, with the values
// indexed through csrvi.IndexValues, the table CSR-VI builds from the
// same finalized order. Where no dictionary pays, the matrix keeps the
// plain codec: it is the csr-du matrix FromCOOOpts built, and its Name
// says so.
func FromCOOVI(c *core.COO, opts Options) (*Matrix, error) {
	m, err := FromCOOOpts(c, opts)
	if err != nil {
		return nil, err
	}
	if unique, vi8, vi16, vi32, ok := csrvi.IndexValues(m.Values); ok {
		m.Unique, m.VI8, m.VI16, m.VI32, m.Values = unique, vi8, vi16, vi32, nil
	}
	return m, nil
}

// encode encodes a finalized COO in one pass over its rows. The rows'
// columns are read in place, so the encoder allocates the output
// streams and nothing per row or unit.
func encode(c *core.COO, opts Options) *Matrix {
	to := c.Len()
	ctlCap := to + 16
	if to > 0 {
		ctlCap += int(c.I[to-1]-c.I[0]) / 4
	}
	m := &Matrix{
		rows: c.Rows(), cols: c.Cols(), opts: opts.withDefaults(),
		Values: make([]float64, to),
		Ctl:    make([]byte, 0, ctlCap),
	}
	copy(m.Values, c.V)
	enc := encoder{m: m, prevRow: -1}
	for k := 0; k < to; {
		row := c.I[k]
		end := k + 1
		for end < to && c.I[end] == row {
			end++
		}
		header := len(m.Ctl)
		single := enc.encodeRow(int(row), k, c.J[k:end])
		start := k
		k = end
		if !single {
			continue
		}
		// A row that is one non-RLE unit becomes a REP unit when the
		// rows after it repeat it, each shifted one column further:
		// the greedy longest run, at most MaxRep rows.
		r := 0
		for r < MaxRep && k < to && repeatsPrev(c, start+r*(end-start), k, to) {
			k += end - start
			r++
		}
		if r > 0 {
			m.Ctl[header] |= FlagREP
			m.Ctl = append(m.Ctl, byte(r))
			enc.prevRow += r
		}
	}
	return m
}

// repeatsPrev reports whether the row of a finalized COO whose entries
// start at k, among entries that end at to, repeats the row before it,
// whose entries start at p: it is the next row, holds as many entries
// and each of its columns is one past the previous row's. The encoder
// writes a run of such rows after a one-unit row as one REP unit.
func repeatsPrev(c *core.COO, p, k, to int) bool {
	n := k - p
	if k+n > to || c.I[k] != c.I[p]+1 || c.I[k+n-1] != c.I[k] || (k+n < to && c.I[k+n] == c.I[k]) {
		return false
	}
	for t := 0; t < n; t++ {
		if c.J[k+t] != c.J[p+t]+1 {
			return false
		}
	}
	return true
}

// encoder carries per-matrix encoding state.
type encoder struct {
	m       *Matrix
	prevRow int
}

// encodeRow emits the units of one non-empty row. cols are the sorted
// column indices of the row's non-zeros, and val is the offset of its
// first value in Values. It reports whether the row is one non-RLE
// unit, the rows a REP unit can carry.
func (e *encoder) encodeRow(row, val int, cols []int32) (single bool) {
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
				single = false
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
		single = newRow
		prevCol = cols[t-1]
		newRow = false
	}
	e.prevRow = row
	return single
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

// Name implements core.Format.
func (m *Matrix) Name() string {
	if m.IndexWidth() != 0 || m.plainVI {
		return "csr-du-vi"
	}
	if m.opts.RLE {
		return "csr-du-rle"
	}
	return "csr-du"
}

// Rows implements core.Format.
func (m *Matrix) Rows() int { return m.rows }

// Cols implements core.Format.
func (m *Matrix) Cols() int { return m.cols }

// NNZ implements core.Format: the length of the one non-empty value
// stream.
func (m *Matrix) NNZ() int { return len(m.Values) + len(m.VI8) + len(m.VI16) + len(m.VI32) }

// SizeBytes implements core.Format: the ctl stream plus the values, or
// plus val_ind and the unique table under the dictionary codec.
func (m *Matrix) SizeBytes() int64 {
	return int64(len(m.Ctl)) + int64(len(m.Values)+len(m.Unique))*core.ValSize + m.ValIndBytes()
}

// IndexWidth returns the val_ind element width in bytes (1, 2 or 4)
// under the dictionary codec, and 0 under the plain codec.
func (m *Matrix) IndexWidth() int {
	switch {
	case m.VI8 != nil:
		return 1
	case m.VI16 != nil:
		return 2
	case m.VI32 != nil:
		return 4
	}
	return 0
}

// ValIndBytes returns the size of the val_ind stream: one IndexWidth
// entry per non-zero, none under the plain codec.
func (m *Matrix) ValIndBytes() int64 {
	return int64(len(m.VI8) + 2*len(m.VI16) + 4*len(m.VI32))
}

// TTU returns the total-to-unique values ratio of the dictionary codec
// (0 without a unique table).
func (m *Matrix) TTU() float64 {
	if len(m.Unique) == 0 {
		return 0
	}
	return float64(m.NNZ()) / float64(len(m.Unique))
}

// SpMV computes y = A*x.
func (m *Matrix) SpMV(y, x []float64) { m.whole().SpMV(y, x) }

// whole returns the one chunk that spans the matrix.
func (m *Matrix) whole() *chunk {
	return &chunk{m: m, lo: 0, hi: m.rows, ctlLo: 0, ctlHi: len(m.Ctl),
		valLo: 0, valHi: m.NNZ(), startMark: 0}
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
	prefix[len(m.marks)] = int64(m.NNZ())
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
			ch.valHi = m.NNZ()
		}
		if len(chunks) == 0 {
			ch.lo = 0 // cover leading empty rows
		}
		chunks = append(chunks, ch)
	}
	return chunks
}
