package csr

import (
	"sort"

	"spmv/internal/core"
	"spmv/internal/partition"
)

var _ core.NNZSplitter = (*Matrix)(nil)

// SplitNNZ implements core.NNZSplitter: boundaries are placed every
// nnz/parts stored elements — mid-row when a row straddles a target —
// so one worker can never inherit more than an even share plus one
// element, no matter how skewed the row lengths are. This is the
// merge/nonzero-split partitioning of Bergmans et al. applied to CSR:
// the row-granular Split keeps a long row whole (its owner then carries
// the whole row's weight), while SplitNNZ privatizes the at-most-two
// boundary rows per chunk for the scheduler's fix-up pass.
func (m *Matrix) SplitNNZ(n int) []core.NNZChunk {
	if n <= 0 {
		panic(core.Usagef("csr: SplitNNZ with n=%d", n))
	}
	nnz := m.NNZ()
	bounds := partition.Even(nnz, n)
	var chunks []core.NNZChunk
	for i := 0; i+1 < len(bounds); i++ {
		klo, khi := bounds[i], bounds[i+1]
		if klo == khi {
			continue
		}
		chunks = append(chunks, m.nnzChunk(klo, khi))
	}
	return chunks
}

// nnzChunk locates the rows of the half-open non-zero range [klo, khi)
// and classifies its edges: a boundary strictly inside a row makes that
// row a shared ("split") row whose piece is privatized.
func (m *Matrix) nnzChunk(klo, khi int) *nnzChunk {
	rFirst := m.rowOf(klo)
	rLast := m.rowOf(khi - 1)
	c := &nnzChunk{m: m, klo: klo, khi: khi, head: -1, tail: -1}
	headSplit := klo > int(m.RowPtr[rFirst])
	tailSplit := khi < int(m.RowPtr[rLast+1])
	if rFirst == rLast {
		// Single-row chunk: either it owns the whole row, or the whole
		// chunk is one privatized piece (reported via the head slot).
		if headSplit || tailSplit {
			c.head, c.tail = rFirst, rFirst
			c.fullLo, c.fullHi = rFirst, rFirst
		} else {
			c.fullLo, c.fullHi = rFirst, rLast+1
		}
		return c
	}
	c.fullLo, c.fullHi = rFirst, rLast+1
	if headSplit {
		c.head = rFirst
		c.fullLo = rFirst + 1
	}
	if tailSplit {
		c.tail = rLast
		c.fullHi = rLast
	}
	return c
}

// rowOf returns the row containing stored non-zero k: the unique r with
// RowPtr[r] <= k < RowPtr[r+1] (empty rows have no non-zeros and are
// never returned).
func (m *Matrix) rowOf(k int) int {
	return sort.Search(m.rows, func(r int) bool { return int(m.RowPtr[r+1]) > k })
}

// nnzChunk is a contiguous stored-non-zero range of a CSR matrix.
// Rows [fullLo, fullHi) are exclusively owned; head and tail are the
// shared boundary rows (-1 when the edge falls on a row boundary).
type nnzChunk struct {
	m              *Matrix
	klo, khi       int
	fullLo, fullHi int
	head, tail     int
}

func (c *nnzChunk) NNZRange() (int, int) { return c.klo, c.khi }
func (c *nnzChunk) NNZ() int             { return c.khi - c.klo }
func (c *nnzChunk) Boundary() (int, int) { return c.head, c.tail }

// RowRange returns the touched rows: from the head split row (or first
// full row) through the tail split row (or last full row), half-open.
func (c *nnzChunk) RowRange() (int, int) {
	lo, hi := c.fullLo, c.fullHi
	if c.head >= 0 {
		lo = c.head
	}
	if c.tail >= 0 {
		hi = c.tail + 1
	}
	return lo, hi
}

// SpMVPartial implements core.NNZChunk. Fully-owned rows run the same
// row walk as row partitioning; the at-most-two boundary pieces run it
// too, as one-row ranges over their share of the row, into the chunk's
// private partial slots.
func (c *nnzChunk) SpMVPartial(y, x, partial []float64) {
	partial[0] = 0
	partial[1] = 0
	m := c.m
	if c.head >= 0 {
		end := min(m.RowPtr[c.head+1], int32(c.khi))
		m.spmv(partial[:1], x, []int32{int32(c.klo), end}, 0, 1, 1)
	}
	m.spmv(y, x, m.RowPtr, c.fullLo, c.fullHi, 1)
	if c.tail >= 0 && c.tail != c.head {
		m.spmv(partial[1:2], x, []int32{m.RowPtr[c.tail], int32(c.khi)}, 0, 1, 1)
	}
}
