// Package csr implements the Compressed Sparse Row storage format with
// 32-bit indices — the baseline of the paper's evaluation (§II-B,
// Fig 1) — under three value codecs.
//
// A Matrix stores row_ptr and col_ind once and its values in one of
// three codecs, named by the constructor that built it:
//
//   - csr (FromCOO): one float64 per non-zero, Values.
//   - csr32 (From32): one float32 per non-zero, Values32 — Keyes'
//     lower-precision values (§III-C), half the value stream; pair it
//     with solver.Refine for double-precision solutions (Langou et
//     al.'s mixed-precision scheme, also cited in §III-C).
//   - csr-vi (FromCOOVI): CSR-VI, the value compression of §V. Where a
//     dictionary pays (csrvi.Pays), Unique holds each distinct value
//     once and one of VI8/VI16/VI32 holds, per non-zero, the index of
//     its value in the narrowest width that addresses Unique: the
//     kernel reads vals_unique[val_ind[j]] (Fig 5) for values[j].
//     Elsewhere the matrix keeps the plain codec: Unique holds every
//     value in stream order, at CSR's bytes and with CSR's walk.
//
// One generic row walk, with a register accumulator (the paper's
// optimized CSR code), serves all three codecs: it reads each value
// through csrvi.Load, which compiles to the plain load for a float64 or
// float32 stream and to the table lookup for an index stream. A Matrix
// partitions its rows by nnz for the multithreaded runtime and traces
// its memory accesses for the machine simulator.
package csr

import (
	"fmt"
	"math"
	"slices"

	"spmv/internal/core"
	"spmv/internal/csrvi"
	"spmv/internal/partition"
)

// Matrix is a sparse matrix in CSR form: ColInd holds the column of
// each non-zero in row-major order and RowPtr the offset of each row's
// first non-zero (len rows+1). The values are in exactly one stream,
// chosen by the codec: Values (csr), Values32 (csr32), or for csr-vi
// Unique in stream order (plain codec) or one of VI8/VI16/VI32 indexing
// into Unique (dictionary codec).
type Matrix struct {
	rows, cols int
	name       string
	RowPtr     []int32
	ColInd     []int32
	Values     []float64
	Values32   []float32
	Unique     []float64
	VI8        []uint8
	VI16       []uint16
	VI32       []uint32

	// Virtual base addresses for tracing; zero until Place is called.
	rowPtrBase, colIndBase, viBase, valBase uint64
}

var (
	_ core.Format   = (*Matrix)(nil)
	_ core.Splitter = (*Matrix)(nil)
	_ core.Placer   = (*Matrix)(nil)
)

// FromCOO builds a CSR matrix from a triplet matrix. The COO is
// finalized in place if it is not already. It returns an error if the
// non-zero count exceeds the 32-bit index range.
func FromCOO(c *core.COO) (*Matrix, error) {
	m, err := structure(c, "csr")
	if err != nil {
		return nil, err
	}
	m.Values = slices.Clone(c.V)
	return m, nil
}

// From32 builds a single-precision-value CSR matrix; values are rounded
// to float32.
func From32(c *core.COO) (*Matrix, error) {
	m, err := structure(c, "csr32")
	if err != nil {
		return nil, err
	}
	m.Values32 = make([]float32, len(c.V))
	for k, v := range c.V {
		m.Values32[k] = float32(v)
	}
	return m, nil
}

// FromCOOVI encodes a triplet matrix into CSR-VI, numbering unique
// values in order of first appearance by their bit patterns (+0 and -0
// are distinct, and multiply alike). Where no dictionary pays
// (csrvi.IndexValues), the matrix takes the plain codec.
func FromCOOVI(c *core.COO) (*Matrix, error) {
	m, err := structure(c, "csr-vi")
	if err != nil {
		return nil, err
	}
	var ok bool
	if m.Unique, m.VI8, m.VI16, m.VI32, ok = csrvi.IndexValues(c.V); !ok {
		m.Unique = slices.Clone(c.V)
	}
	return m, nil
}

// structure finalizes c and returns the named matrix with its row_ptr
// and col_ind arrays and no value stream.
func structure(c *core.COO, name string) (*Matrix, error) {
	c.Finalize()
	if c.Len() > math.MaxInt32 {
		return nil, fmt.Errorf("%s: %d non-zeros exceed 32-bit index range", name, c.Len())
	}
	m := &Matrix{
		rows:   c.Rows(),
		cols:   c.Cols(),
		name:   name,
		RowPtr: make([]int32, c.Rows()+1),
		ColInd: slices.Clone(c.J),
	}
	for _, i := range c.I {
		m.RowPtr[i+1]++
	}
	for i := 0; i < c.Rows(); i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m, nil
}

// FromRaw adopts stored row_ptr, col_ind and value streams as the named
// matrix, "csr" or "csr-vi", without reordering anything, and returns
// it once Verify passes. Under csr, values is the value stream and
// width is 0. Under csr-vi, width 0 is the plain codec, with values in
// stream order, and width 1, 2 or 4 the dictionary codec: vi holds one
// little-endian index of that width per non-zero into the table values.
func FromRaw(name string, rowPtr, colInd []int32, width int, vi []byte, values []float64, rows, cols int) (*Matrix, error) {
	m := &Matrix{rows: rows, cols: cols, name: name, RowPtr: rowPtr, ColInd: colInd}
	switch {
	case name == "csr" && width == 0:
		m.Values = values
	case name == "csr-vi" && width == 0:
		m.Unique = values
	case name == "csr-vi" && (width == 1 || width == 2 || width == 4) && len(vi)%width == 0:
		m.Unique = values
		m.VI8, m.VI16, m.VI32 = csrvi.Unpack(vi, width)
		if m.VI8 != nil {
			m.Unique = csrvi.Pad(values)
		}
	default:
		return nil, core.Corruptf("csr: no %s value codec of width %d over %d index bytes", name, width, len(vi))
	}
	if err := m.Verify(); err != nil {
		return nil, err
	}
	return m, nil
}

// Name implements core.Format: the codec the constructor built.
func (m *Matrix) Name() string { return m.name }

// Rows implements core.Format.
func (m *Matrix) Rows() int { return m.rows }

// Cols implements core.Format.
func (m *Matrix) Cols() int { return m.cols }

// NNZ implements core.Format.
func (m *Matrix) NNZ() int { return len(m.ColInd) }

// SizeBytes implements core.Format: row_ptr + col_ind + the value
// stream, which under the dictionary codec is val_ind + unique.
func (m *Matrix) SizeBytes() int64 {
	return int64(m.rows+1)*core.IdxSize + int64(m.NNZ())*core.IdxSize + m.ValIndBytes() + m.valueBytes()
}

// valueBytes is the size of the stored float values: the value stream,
// or the unique table under the dictionary codec.
func (m *Matrix) valueBytes() int64 {
	return int64(len(m.Values)+len(m.Unique))*core.ValSize + int64(len(m.Values32))*4
}

// IndexWidth returns the val_ind element width in bytes (1, 2 or 4)
// under the dictionary codec, and 0 under every other codec.
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
// entry per non-zero, none without a dictionary. This is the stream
// that replaces the 8-byte values of CSR — the quantity §V shrinks.
func (m *Matrix) ValIndBytes() int64 {
	return int64(len(m.VI8) + 2*len(m.VI16) + 4*len(m.VI32))
}

// TTU returns the total-to-unique values ratio of the stored value
// table: 1 under csr-vi's plain codec, which stores every value, and 0
// without a table.
func (m *Matrix) TTU() float64 {
	if len(m.Unique) == 0 {
		return 0
	}
	return float64(m.NNZ()) / float64(len(m.Unique))
}

// Applicable reports whether CSR-VI is worthwhile for the matrix per
// the paper's ttu > 5 criterion (§VI-E).
func (m *Matrix) Applicable() bool { return m.TTU() > csrvi.MinTTU }

// SpMV computes y = A*x with the paper's optimized kernel: the row sum
// is kept in a register and written to y[i] once per row.
func (m *Matrix) SpMV(y, x []float64) { m.spmv(y, x, m.RowPtr, 0, m.rows, 1) }

// spmv runs rows [lo, hi) of rowPtr through the walk for the matrix's
// value stream, one instantiation per codec chosen once per call: the
// row walk for k = 1, the panel walk for a k-column batch.
func (m *Matrix) spmv(y, x []float64, rowPtr []int32, lo, hi, k int) {
	switch tab := csrvi.Table(m.Unique); {
	case m.VI8 != nil && tab != nil && k == 1:
		spmvRangeU8(y, x, rowPtr, m.ColInd, m.VI8, tab, lo, hi)
	case m.VI8 != nil:
		spmvStream(y, x, rowPtr, m.ColInd, m.VI8, m.Unique, lo, hi, k)
	case m.VI16 != nil:
		spmvStream(y, x, rowPtr, m.ColInd, m.VI16, m.Unique, lo, hi, k)
	case m.VI32 != nil:
		spmvStream(y, x, rowPtr, m.ColInd, m.VI32, m.Unique, lo, hi, k)
	case m.Values32 != nil:
		spmvStream(y, x, rowPtr, m.ColInd, m.Values32, nil, lo, hi, k)
	default:
		spmvStream(y, x, rowPtr, m.ColInd, m.plain(), nil, lo, hi, k)
	}
}

// plain returns the float64 value stream: Values under csr, Unique
// under csr-vi's plain codec.
func (m *Matrix) plain() []float64 {
	if m.Values != nil {
		return m.Values
	}
	return m.Unique
}

// spmvStream is the walk over one value stream; it reports a panel
// walk's value loads to batchDecodeHook.
func spmvStream[V csrvi.Value](y, x []float64, rowPtr, colInd []int32, values []V, unique []float64, lo, hi, k int) {
	if k == 1 {
		spmvRange(y, x, rowPtr, colInd, values, unique, lo, hi)
		return
	}
	loads := spmvBatchRange(y, x, rowPtr, colInd, values, unique, lo, hi, k)
	if batchDecodeHook != nil {
		batchDecodeHook(loads)
	}
}

// errRowPtr is the trap the row walk panics with when a row pointer
// runs backwards or past its chunk's non-zeros. It is built once, so
// the kernel allocates nothing to raise it.
var errRowPtr = core.Corruptf("csr: row pointer decreases or runs past the non-zeros")

// spmvRange multiplies rows [lo, hi) with one non-zero cursor for the
// whole range: the range's values and column indices are sliced once,
// and k advances to each row's end. k < end <= len(vals) lets the
// compiler drop the per-nnz checks on vals and cols, leaving only the
// data-dependent lookups, x[cols[k]] and, under the dictionary codec,
// unique[vals[k]]. Each row is summed left to right from +0 and stored
// once, so only y[lo:hi] is written.
//
// The type parameter gives each value codec its stream; csrvi.Load
// widens a float32 (a no-op for float64) or looks an index up in
// unique. Each instantiation compiles to the same loop as a
// hand-written one.
func spmvRange[V csrvi.Value](y, x []float64, rowPtr, colInd []int32, values []V, unique []float64, lo, hi int) {
	ends := rowPtr[lo+1 : hi+1]
	base, top := int(rowPtr[lo]), int(rowPtr[hi])
	if base < 0 || top < base || top > len(values) || top > len(colInd) {
		panic(errRowPtr)
	}
	vals := window(values, base, top)
	cols := colInd[base:top]
	cols = cols[:len(vals)]
	y = y[lo:hi]
	y = y[:len(ends)]
	k := uint(0)
	for i, e := range ends {
		end := uint(int(e) - base)
		if end < k || end > uint(len(vals)) {
			panic(errRowPtr)
		}
		sum := 0.0
		if csrvi.Indexed[V]() {
			for ; k < end && k+1 < end; k += 2 {
				sum += csrvi.Load(vals[k], unique) * x[cols[k]]
				sum += csrvi.Load(vals[k+1], unique) * x[cols[k+1]]
			}
		}
		for ; k < end; k++ {
			sum += csrvi.Load(vals[k], unique) * x[cols[k]]
		}
		y[i] = sum
	}
}

// spmvRangeU8 is spmvRange for a u8 val_ind stream over a padded
// table (csrvi.Pad): a u8 indexes the 256-entry array without a bounds
// check, and the walk takes two non-zeros a step, so per non-zero only
// the x[col] check is left. Each row is still summed left to right from
// +0, so y is bitwise spmvRange's.
func spmvRangeU8(y, x []float64, rowPtr, colInd []int32, values []uint8, tab *[csrvi.TableSize]float64, lo, hi int) {
	ends := rowPtr[lo+1 : hi+1]
	base, top := int(rowPtr[lo]), int(rowPtr[hi])
	if base < 0 || top < base || top > len(values) || top > len(colInd) {
		panic(errRowPtr)
	}
	vals := values[base:top]
	cols := colInd[base:top]
	cols = cols[:len(vals)]
	y = y[lo:hi]
	y = y[:len(ends)]
	_ = tab[0]
	k := uint(0)
	for i, e := range ends {
		end := uint(int(e) - base)
		if end < k || end > uint(len(vals)) {
			panic(errRowPtr)
		}
		sum := 0.0
		for ; k < end && k+1 < end; k += 2 {
			sum += tab[vals[k]] * x[cols[k]]
			sum += tab[vals[k+1]] * x[cols[k+1]]
		}
		if k < end {
			sum += tab[vals[k]] * x[cols[k]]
			k++
		}
		y[i] = sum
	}
}

// window returns s[lo:hi]. It must stay a generic call, made before a
// kernel's loops: the compiler checks the kernel's type dictionary for
// nil there, and that check dominates, and drops, the one each inlined
// csrvi.Load would repeat in the loops, which would otherwise keep the
// dictionary in a register.
func window[V csrvi.Value](s []V, lo, hi int) []V { return s[lo:hi] }

// Split implements core.Splitter with nnz-balanced row partitioning:
// the multithreaded version is derived from the serial one by giving
// each thread its first and last row (paper §V).
func (m *Matrix) Split(n int) []core.Chunk {
	return splitRows(m.RowPtr, n, func(lo, hi int) core.Chunk { return &chunk{m: m, lo: lo, hi: hi} })
}

// splitRows cuts the rows of rowPtr into at most n nnz-balanced,
// non-empty ranges and makes a chunk of each.
func splitRows(rowPtr []int32, n int, chunk func(lo, hi int) core.Chunk) []core.Chunk {
	bounds := partition.SplitRowsByNNZ(rowPtr, n)
	var chunks []core.Chunk
	for i := 0; i+1 < len(bounds); i++ {
		if bounds[i] < bounds[i+1] {
			chunks = append(chunks, chunk(bounds[i], bounds[i+1]))
		}
	}
	return chunks
}

// value returns the k-th stored value, resolving the codec.
func (m *Matrix) value(k int) float64 {
	switch {
	case m.IndexWidth() != 0:
		return m.Unique[m.valueIndex(k)]
	case m.Values32 != nil:
		return float64(m.Values32[k])
	}
	return m.plain()[k]
}

// valueIndex returns the val_ind entry of the k-th non-zero under the
// dictionary codec.
func (m *Matrix) valueIndex(k int) int {
	switch {
	case m.VI8 != nil:
		return int(m.VI8[k])
	case m.VI16 != nil:
		return int(m.VI16[k])
	}
	return int(m.VI32[k])
}

// ForEach calls fn for every non-zero in row-major order, with the
// value the kernels multiply by.
func (m *Matrix) ForEach(fn func(i, j int, v float64)) {
	for i := 0; i < m.rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			fn(i, int(m.ColInd[k]), m.value(int(k)))
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

// chunk is a contiguous row range of a CSR matrix.
type chunk struct {
	m      *Matrix
	lo, hi int
}

var _ core.Tracer = (*chunk)(nil)

func (c *chunk) RowRange() (int, int) { return c.lo, c.hi }
func (c *chunk) NNZ() int             { return int(c.m.RowPtr[c.hi] - c.m.RowPtr[c.lo]) }
func (c *chunk) SpMV(y, x []float64)  { c.m.spmv(y, x, c.m.RowPtr, c.lo, c.hi, 1) }
