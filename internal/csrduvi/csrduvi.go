// Package csrduvi implements CSR-DU-VI, the combination of both of the
// paper's compression schemes (an extension explored in the authors'
// companion CF'08 paper, reference [8]): the column indices are encoded
// as CSR-DU delta units and the values are indirected through a unique
// value table as in CSR-VI. The working set shrinks on both the index
// and the value side, at the cost of both decode overheads.
//
// The kernels are csrdu's with the value read through the table: the
// scalar one is the same unit loop, generic over the val_ind element
// type; the panel one decodes units with csrdu.DecodeUnit. Both keep
// csrdu's summation order, so the two formats agree bit for bit.
package csrduvi

import (
	"encoding/binary"
	"fmt"

	"spmv/internal/core"
	"spmv/internal/csrdu"
	"spmv/internal/csrvi"
	"spmv/internal/partition"
	"spmv/internal/varint"
)

// Matrix is a sparse matrix with CSR-DU index data and CSR-VI value
// data. The ctl stream, marks and unit semantics are exactly those of
// csrdu.Matrix; the values stream is replaced by val_ind + vals_unique.
type Matrix struct {
	du     *csrdu.Matrix
	marks  []csrdu.RowMark
	Unique []float64
	VI8    []uint8
	VI16   []uint16
	VI32   []uint32

	ctlBase, viBase, uniqBase uint64
}

var (
	_ core.Format   = (*Matrix)(nil)
	_ core.Splitter = (*Matrix)(nil)
	_ core.Placer   = (*Matrix)(nil)
)

// FromCOO encodes with default CSR-DU options.
func FromCOO(c *core.COO) (*Matrix, error) { return FromCOOOpts(c, csrdu.Options{}) }

// FromCOOOpts encodes a triplet matrix into CSR-DU-VI.
func FromCOOOpts(c *core.COO, opts csrdu.Options) (*Matrix, error) {
	du, err := csrdu.FromCOOOpts(c, opts)
	if err != nil {
		return nil, fmt.Errorf("csrduvi: %w", err)
	}
	m := &Matrix{du: du, marks: du.RowMarks()}
	// The CSR-DU values stream is in finalized-COO order, which is the
	// same order csrvi.FromCOO sees, so the two formats share one table.
	m.Unique, m.VI8, m.VI16, m.VI32 = csrvi.IndexValues(du.Values)
	return m, nil
}

// TTU returns the total-to-unique values ratio.
func (m *Matrix) TTU() float64 {
	if len(m.Unique) == 0 {
		return 0
	}
	return float64(m.NNZ()) / float64(len(m.Unique))
}

// IndexWidth returns the val_ind element width in bytes.
func (m *Matrix) IndexWidth() int {
	switch {
	case m.VI8 != nil:
		return 1
	case m.VI16 != nil:
		return 2
	default:
		return 4
	}
}

// Stats returns the CSR-DU unit statistics of the index stream.
func (m *Matrix) Stats() csrdu.UnitStats { return m.du.Stats() }

// Profile returns the detailed structural profile of the CSR-DU index
// stream (unit histograms, byte partition, per-region class mix).
func (m *Matrix) Profile(nregions int) *csrdu.Profile { return m.du.Profile(nregions) }

// CtlBytes returns the size of the ctl (index) stream.
func (m *Matrix) CtlBytes() int { return len(m.du.Ctl) }

// ValIndBytes returns the size of the val_ind stream: one IndexWidth
// entry per non-zero.
func (m *Matrix) ValIndBytes() int64 {
	return int64(m.NNZ()) * int64(m.IndexWidth())
}

// Name implements core.Format.
func (m *Matrix) Name() string { return "csr-du-vi" }

// Rows implements core.Format.
func (m *Matrix) Rows() int { return m.du.Rows() }

// Cols implements core.Format.
func (m *Matrix) Cols() int { return m.du.Cols() }

// NNZ implements core.Format.
func (m *Matrix) NNZ() int { return m.du.NNZ() }

// SizeBytes implements core.Format: ctl + val_ind + unique.
func (m *Matrix) SizeBytes() int64 {
	return int64(len(m.du.Ctl)) +
		int64(m.NNZ())*int64(m.IndexWidth()) +
		int64(len(m.Unique))*core.ValSize
}

// SpMV computes y = A*x.
func (m *Matrix) SpMV(y, x []float64) {
	(&chunk{m: m, lo: 0, hi: m.Rows(), ctlLo: 0, ctlHi: len(m.du.Ctl),
		valLo: 0, valHi: m.NNZ(), startMark: 0}).SpMV(y, x)
}

// Split implements core.Splitter, mirroring csrdu's mark-based
// partitioning.
func (m *Matrix) Split(n int) []core.Chunk {
	if len(m.marks) == 0 {
		if m.Rows() == 0 {
			return nil
		}
		return []core.Chunk{&chunk{m: m, lo: 0, hi: m.Rows(), startMark: -1}}
	}
	prefix := make([]int64, len(m.marks)+1)
	for i, mk := range m.marks {
		prefix[i] = int64(mk.Val)
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
		ch.lo = m.marks[a].Row
		ch.ctlLo = m.marks[a].Ctl
		ch.valLo = m.marks[a].Val
		if b < len(m.marks) {
			ch.hi = m.marks[b].Row
			ch.ctlHi = m.marks[b].Ctl
			ch.valHi = m.marks[b].Val
		} else {
			ch.hi = m.Rows()
			ch.ctlHi = len(m.du.Ctl)
			ch.valHi = m.NNZ()
		}
		if len(chunks) == 0 {
			ch.lo = 0
		}
		chunks = append(chunks, ch)
	}
	return chunks
}

type chunk struct {
	m            *Matrix
	lo, hi       int
	ctlLo, ctlHi int
	valLo, valHi int
	startMark    int
}

func (c *chunk) RowRange() (int, int) { return c.lo, c.hi }
func (c *chunk) NNZ() int             { return c.valHi - c.valLo }

// SpMV runs the CSR-DU unit loop with the value fetch indirected
// through the unique table. The three index widths instantiate the one
// generic kernel, so the hot path stays monomorphic.
func (c *chunk) SpMV(y, x []float64) {
	if c.startMark < 0 || c.ctlLo >= c.ctlHi {
		clear(y[c.lo:c.hi])
		return
	}
	switch {
	case c.m.VI8 != nil:
		spmvDUVI(c, c.m.VI8, y, x)
	case c.m.VI16 != nil:
		spmvDUVI(c, c.m.VI16, y, x)
	default:
		spmvDUVI(c, c.m.VI32, y, x)
	}
}

// spmvDUVI is the single-loop form of csrdu's scalar kernel, from
// before that kernel's per-class run loops (DESIGN.md §17), with each
// value read as unique[ind[k]]. It keeps the same peeled first header,
// rows stored once and two invariants (left-to-right row sums, writes
// confined to [lo, hi)). The chunk must hold at least one unit.
func spmvDUVI[I uint8 | uint16 | uint32](c *chunk, ind []I, y, x []float64) {
	m := c.m
	ctl := m.du.Ctl[:c.ctlHi]
	unique := m.Unique
	ind = ind[:c.valHi]
	pos, vi := c.ctlLo, c.valLo

	yi := m.marks[c.startMark].Row
	clear(y[c.lo:yi])
	flags := ctl[pos]
	size := int(ctl[pos+1])
	pos += 2
	if flags&csrdu.FlagRJMP != 0 {
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
		sum += unique[ind[vi]] * x[xi]
		vi++

		if n := size - 1; n > 0 {
			vals := ind[vi : vi+n]
			vi += n
			switch cls := flags & csrdu.TypeMask; {
			case flags&csrdu.FlagRLE != 0:
				var d uint64
				d, pos = varint.DecodeAt(ctl, pos)
				for _, v := range vals {
					xi += int(d)
					sum += unique[v] * x[xi]
				}
			case cls == csrdu.ClassU8:
				deltas := ctl[pos : pos+n]
				pos += n
				deltas = deltas[:len(vals)]
				for k, v := range vals {
					xi += int(deltas[k])
					sum += unique[v] * x[xi]
				}
			case cls == csrdu.ClassU16:
				for len(vals) >= 4 && pos+8 <= len(ctl) {
					w := binary.LittleEndian.Uint64(ctl[pos:])
					pos += 8
					xi += int(w & 0xffff)
					sum += unique[vals[0]] * x[xi]
					xi += int(w >> 16 & 0xffff)
					sum += unique[vals[1]] * x[xi]
					xi += int(w >> 32 & 0xffff)
					sum += unique[vals[2]] * x[xi]
					xi += int(w >> 48)
					sum += unique[vals[3]] * x[xi]
					vals = vals[4:]
				}
				if len(vals) > 0 {
					if pos+8 <= len(ctl) {
						w := binary.LittleEndian.Uint64(ctl[pos:])
						pos += 2 * len(vals)
						for _, v := range vals {
							xi += int(w & 0xffff)
							w >>= 16
							sum += unique[v] * x[xi]
						}
					} else {
						b := ctl[pos : pos+2*len(vals)]
						pos += len(b)
						for k, v := range vals {
							xi += int(binary.LittleEndian.Uint16(b[2*k:]))
							sum += unique[v] * x[xi]
						}
					}
				}
			case cls == csrdu.ClassU32:
				for len(vals) >= 2 && pos+8 <= len(ctl) {
					w := binary.LittleEndian.Uint64(ctl[pos:])
					pos += 8
					xi += int(w & 0xffffffff)
					sum += unique[vals[0]] * x[xi]
					xi += int(w >> 32)
					sum += unique[vals[1]] * x[xi]
					vals = vals[2:]
				}
				if len(vals) > 0 {
					// One delta left: two would have been 8 bytes of ctl.
					xi += int(binary.LittleEndian.Uint32(ctl[pos:]))
					pos += 4
					sum += unique[vals[0]] * x[xi]
				}
			default:
				b := ctl[pos : pos+8*n]
				pos += 8 * n
				for k, v := range vals {
					xi += int(binary.LittleEndian.Uint64(b[8*k:]))
					sum += unique[v] * x[xi]
				}
			}
		} else if flags&csrdu.FlagRLE != 0 {
			// A one-element RLE unit still carries its delta varint.
			_, pos = varint.DecodeAt(ctl, pos)
		}

		if pos >= len(ctl) {
			break
		}
		flags = ctl[pos]
		size = int(ctl[pos+1])
		pos += 2
		if flags&csrdu.FlagNR != 0 {
			y[yi] = sum
			sum, xi = 0, 0
			yi++
			if flags&csrdu.FlagRJMP != 0 {
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
