// Package csrvi implements CSR-VI (CSR Value Index), the value
// compression scheme of the paper's §V.
//
// The values array of CSR is replaced by two arrays: vals_unique, which
// holds each distinct numerical value once, and val_ind, which holds for
// every non-zero the index of its value in vals_unique. The index width
// is the narrowest of 1/2/4 bytes that addresses the unique count, so
// for matrices with few distinct values the 8-byte value stream shrinks
// to 1-2 bytes per non-zero — and values are 2/3 of the CSR working set.
//
// The scheme only pays off when the total-to-unique ratio (ttu) is
// high. The paper reports its results on the matrices with ttu > 5
// (§VI-E); TTU and Applicable expose that test. The encoder's rule is
// bytes instead (Pays): it builds the dictionary only where the val_ind
// stream plus the table is smaller than the 8-byte values it replaces.
// Elsewhere — all-distinct values — the matrix keeps the plain codec:
// Unique holds every value in stream order, there is no val_ind, and
// the matrix costs CSR's bytes and runs CSR's walk. Construction is one
// O(nnz) pass through an open-addressing hash table (IndexValues), as
// in the paper, that stops at break-even.
package csrvi

import (
	"fmt"
	"math"
	"slices"

	"spmv/internal/core"
	"spmv/internal/partition"
)

// Matrix is a sparse matrix in CSR-VI form. Structure (RowPtr, ColInd)
// is standard CSR; values are indirected through Unique.
type Matrix struct {
	rows, cols int
	RowPtr     []int32
	ColInd     []int32
	Unique     []float64
	// Under the dictionary codec exactly one of VI8/VI16/VI32 is
	// non-nil, chosen by len(Unique). Under the plain codec all three
	// are nil and Unique holds one value per non-zero, in stream order.
	VI8  []uint8
	VI16 []uint16
	VI32 []uint32

	rowPtrBase, colIndBase, viBase, uniqBase uint64
}

var (
	_ core.Format   = (*Matrix)(nil)
	_ core.Splitter = (*Matrix)(nil)
	_ core.Placer   = (*Matrix)(nil)
)

// FromCOO encodes a triplet matrix into CSR-VI. The COO is finalized in
// place if needed. Unique values are numbered in order of first
// appearance. Distinctness is on the bit pattern of the float64, so
// +0 and -0 are distinct (they multiply identically, so this is safe).
// Where no dictionary pays (IndexValues), the matrix takes the plain
// codec.
func FromCOO(c *core.COO) (*Matrix, error) {
	c.Finalize()
	if c.Len() > math.MaxInt32 {
		return nil, fmt.Errorf("csrvi: %d non-zeros exceed supported range", c.Len())
	}
	m := &Matrix{
		rows:   c.Rows(),
		cols:   c.Cols(),
		RowPtr: make([]int32, c.Rows()+1),
		ColInd: make([]int32, c.Len()),
	}
	copy(m.ColInd, c.J)
	for _, i := range c.I {
		m.RowPtr[i+1]++
	}
	for i := 0; i < c.Rows(); i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	var ok bool
	if m.Unique, m.VI8, m.VI16, m.VI32, ok = IndexValues(c.V); !ok {
		m.Unique = slices.Clone(c.V)
	}
	return m, nil
}

// TTU returns the total-to-unique values ratio of the stored value
// table: 1 under the plain codec, which stores every value (a matrix
// takes it only where its true ratio is at most 2).
func (m *Matrix) TTU() float64 {
	if len(m.Unique) == 0 {
		return 0
	}
	return float64(m.NNZ()) / float64(len(m.Unique))
}

// MinTTU is the paper's empirical applicability threshold (§VI-E).
const MinTTU = 5.0

// Applicable reports whether CSR-VI is worthwhile for the matrix per
// the paper's ttu > 5 criterion.
func (m *Matrix) Applicable() bool { return m.TTU() > MinTTU }

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
// entry per non-zero, none under the plain codec. This is the stream
// that replaces the 8-byte values of CSR — the quantity §V shrinks.
func (m *Matrix) ValIndBytes() int64 {
	return int64(m.NNZ()) * int64(m.IndexWidth())
}

// Name implements core.Format.
func (m *Matrix) Name() string { return "csr-vi" }

// Rows implements core.Format.
func (m *Matrix) Rows() int { return m.rows }

// Cols implements core.Format.
func (m *Matrix) Cols() int { return m.cols }

// NNZ implements core.Format.
func (m *Matrix) NNZ() int { return len(m.ColInd) }

// SizeBytes implements core.Format: row_ptr + col_ind + val_ind + unique.
func (m *Matrix) SizeBytes() int64 {
	return int64(m.rows+1)*core.IdxSize +
		int64(m.NNZ())*core.IdxSize +
		int64(m.NNZ())*int64(m.IndexWidth()) +
		int64(len(m.Unique))*core.ValSize
}

// SpMV computes y = A*x with the paper's Fig 5 kernel: the direct value
// access is replaced by vals_unique[val_ind[j]].
func (m *Matrix) SpMV(y, x []float64) { m.spmvRange(y, x, 0, m.rows) }

// Value is the element type of a value stream: the float64 values
// themselves under the plain codec, their val_ind indices under the
// dictionary codec.
type Value interface {
	float64 | uint8 | uint16 | uint32
}

// Load returns the value v codes for: v itself under the plain codec,
// unique[v] under the dictionary codec. V(1)/V(2) is 0.5 for float64
// and 0 for the index types, a constant in each instantiation, so the
// test folds and the plain instantiation of a kernel compiles to the
// loop it would be without the dictionary. (A method on a value-source
// type costs an indirect call per non-zero; a type switch keeps both
// branches.) The csr-vi and csr-du kernels all read values through it.
func Load[V Value](v V, unique []float64) float64 {
	if V(1)/V(2) != 0 {
		return float64(v)
	}
	return unique[int(v)]
}

// spmvRange dispatches once per call to the walk for the matrix's
// value codec.
func (m *Matrix) spmvRange(y, x []float64, lo, hi int) {
	switch {
	case m.VI8 != nil:
		spmvVI(y, x, m.RowPtr, m.ColInd, m.VI8, m.Unique, lo, hi)
	case m.VI16 != nil:
		spmvVI(y, x, m.RowPtr, m.ColInd, m.VI16, m.Unique, lo, hi)
	case m.VI32 != nil:
		spmvVI(y, x, m.RowPtr, m.ColInd, m.VI32, m.Unique, lo, hi)
	default:
		spmvVI(y, x, m.RowPtr, m.ColInd, m.Unique, nil, lo, hi)
	}
}

// errRowPtr is the trap the row walk panics with when a row pointer
// runs backwards or past its chunk's non-zeros. It is built once, so
// the kernel allocates nothing to raise it.
var errRowPtr = core.Corruptf("csrvi: row pointer decreases or runs past the non-zeros")

// spmvVI multiplies rows [lo, hi) with one non-zero cursor for the
// whole range, as csr's row walk does: the range's value and column
// streams are sliced once and k advances to each row's end, so the
// per-nnz bounds checks are only the data-dependent lookups, unique[id]
// (dictionary codec only) and x[col]. Each row is summed left to right
// from +0 and stored once, so only y[lo:hi] is written.
func spmvVI[V Value](y, x []float64, rowPtr, colInd []int32, vals []V, unique []float64, lo, hi int) {
	ends := rowPtr[lo+1 : hi+1]
	base, top := int(rowPtr[lo]), int(rowPtr[hi])
	if base < 0 || top < base || top > len(vals) || top > len(colInd) {
		panic(errRowPtr)
	}
	vs := window(vals, base, top)
	cols := colInd[base:top]
	cols = cols[:len(vs)]
	y = y[lo:hi]
	y = y[:len(ends)]
	k := uint(0)
	for i, e := range ends {
		end := uint(int(e) - base)
		if end < k || end > uint(len(vs)) {
			panic(errRowPtr)
		}
		sum := 0.0
		for ; k < end; k++ {
			sum += Load(vs[k], unique) * x[cols[k]]
		}
		y[i] = sum
	}
}

// window returns s[lo:hi]. It must stay a generic call, made before a
// kernel's loops: the compiler checks the kernel's type dictionary for
// nil there, and that check dominates, and drops, the one each inlined
// Load would repeat in the loops, which would otherwise keep the
// dictionary in a register.
func window[V Value](s []V, lo, hi int) []V { return s[lo:hi] }

// Value returns the k-th stored value (resolving the indirection).
func (m *Matrix) Value(k int) float64 {
	switch {
	case m.VI8 != nil:
		return m.Unique[m.VI8[k]]
	case m.VI16 != nil:
		return m.Unique[m.VI16[k]]
	case m.VI32 != nil:
		return m.Unique[m.VI32[k]]
	}
	return m.Unique[k]
}

// ForEach calls fn for every non-zero in row-major order.
func (m *Matrix) ForEach(fn func(i, j int, v float64)) {
	for i := 0; i < m.rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			fn(i, int(m.ColInd[k]), m.Value(int(k)))
		}
	}
}

// Triplets converts back to finalized COO form: the inverse of FromCOO.
func (m *Matrix) Triplets() *core.COO {
	c := core.NewCOO(m.rows, m.cols)
	m.ForEach(func(i, j int, v float64) { c.Add(i, j, v) })
	c.Finalize()
	return c
}

// Split implements core.Splitter: the multithreaded version is derived
// from the serial one by giving each thread its first and last row
// (paper §V).
func (m *Matrix) Split(n int) []core.Chunk {
	bounds := partition.SplitRowsByNNZ(m.RowPtr, n)
	var chunks []core.Chunk
	for i := 0; i+1 < len(bounds); i++ {
		if bounds[i] == bounds[i+1] {
			continue
		}
		chunks = append(chunks, &chunk{m: m, lo: bounds[i], hi: bounds[i+1]})
	}
	return chunks
}

type chunk struct {
	m      *Matrix
	lo, hi int
}

var _ core.Tracer = (*chunk)(nil)

func (c *chunk) RowRange() (int, int) { return c.lo, c.hi }
func (c *chunk) NNZ() int             { return int(c.m.RowPtr[c.hi] - c.m.RowPtr[c.lo]) }
func (c *chunk) SpMV(y, x []float64)  { c.m.spmvRange(y, x, c.lo, c.hi) }
