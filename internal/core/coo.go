package core

import (
	"math"
	"slices"
)

// COO is a coordinate-format (triplet) sparse matrix. It is the exchange
// representation of the library: the Matrix Market reader and the
// synthetic generators produce COO, and every Format constructor
// consumes a finalized COO.
//
// A COO is "finalized" when its entries are sorted row-major (row, then
// column) and contain no duplicate coordinates. Format constructors
// require a finalized COO; call Finalize after the last Add. Finalize
// sums the values of a repeated coordinate in the order they were
// added, which is the order of a Matrix Market file's lines.
type COO struct {
	rows, cols int
	I, J       []int32
	V          []float64
	finalized  bool
}

// NewCOO returns an empty rows×cols triplet matrix.
// It panics if either dimension is not positive or exceeds the 32-bit
// index range the library's formats use.
func NewCOO(rows, cols int) *COO {
	const maxDim = 1 << 31
	if rows <= 0 || cols <= 0 || rows >= maxDim || cols >= maxDim {
		panic(Usagef("core: invalid COO dimensions %dx%d", rows, cols))
	}
	return &COO{rows: rows, cols: cols}
}

// Rows returns the number of rows.
func (c *COO) Rows() int { return c.rows }

// Cols returns the number of columns.
func (c *COO) Cols() int { return c.cols }

// Len returns the number of stored triplets (duplicates included until
// Finalize folds them).
func (c *COO) Len() int { return len(c.V) }

// Finalized reports whether Finalize has been called since the last Add.
func (c *COO) Finalized() bool { return c.finalized }

// Add appends the triplet (i, j, v). Duplicate coordinates are allowed
// and are summed by Finalize, matching Matrix Market assembly semantics.
// Add panics if the coordinate is out of range.
func (c *COO) Add(i, j int, v float64) {
	if i < 0 || i >= c.rows || j < 0 || j >= c.cols {
		panic(Usagef("core: COO.Add(%d, %d) out of range for %dx%d matrix", i, j, c.rows, c.cols))
	}
	c.I = append(c.I, int32(i))
	c.J = append(c.J, int32(j))
	c.V = append(c.V, v)
	c.finalized = false
}

// At returns the k-th stored triplet.
func (c *COO) At(k int) (i, j int, v float64) {
	return int(c.I[k]), int(c.J[k]), c.V[k]
}

// Finalize sorts the triplets row-major and folds duplicate coordinates
// by summing their values in the order they were added. Explicit zeros
// that result from cancellation are kept: they are stored non-zeros,
// exactly as in CSR assembly. The sort is stable and O(Len()); its
// memory depends on Len() only, never on the dimensions (finalize.go).
// Finalize is idempotent.
func (c *COO) Finalize() {
	if c.finalized {
		return
	}
	if !slices.IsSorted(c.I) {
		c.sortRows()
	}
	c.sortCols()
	// Fold duplicates in place.
	w := 0
	for k := 0; k < len(c.V); k++ {
		if w > 0 && c.I[k] == c.I[w-1] && c.J[k] == c.J[w-1] {
			c.V[w-1] += c.V[k]
			continue
		}
		c.I[w], c.J[w], c.V[w] = c.I[k], c.J[k], c.V[k]
		w++
	}
	c.I = c.I[:w]
	c.J = c.J[:w]
	c.V = c.V[:w]
	c.finalized = true
}

// RowCounts returns the number of non-zeros in each row of a finalized
// COO. It panics if the COO is not finalized.
func (c *COO) RowCounts() []int {
	c.mustFinal("RowCounts")
	counts := make([]int, c.rows)
	for _, i := range c.I {
		counts[i]++
	}
	return counts
}

// Clone returns a deep copy.
func (c *COO) Clone() *COO {
	out := &COO{
		rows: c.rows, cols: c.cols, finalized: c.finalized,
		I: append([]int32(nil), c.I...),
		J: append([]int32(nil), c.J...),
		V: append([]float64(nil), c.V...),
	}
	return out
}

// Transpose returns a finalized transpose of a finalized COO.
func (c *COO) Transpose() *COO {
	c.mustFinal("Transpose")
	t := NewCOO(c.cols, c.rows)
	n := len(c.V)
	if c.cols > n {
		// A count per column would outweigh the entries; Finalize's
		// memory depends on the entries only.
		t.I, t.J, t.V = slices.Clone(c.J), slices.Clone(c.I), slices.Clone(c.V)
		t.Finalize()
		return t
	}
	// A counting sort by column writes the transpose straight into its
	// arrays, with no scratch copy. c is in row order, so each column's
	// entries arrive in row order.
	next := make([]int, c.cols+1)
	for _, j := range c.J {
		next[j+1]++
	}
	for j := range c.cols {
		next[j+1] += next[j]
	}
	t.I, t.J, t.V = make([]int32, n), make([]int32, n), make([]float64, n)
	for k, j := range c.J {
		p := next[j]
		next[j]++
		t.I[p], t.J[p], t.V[p] = j, c.I[k], c.V[k]
	}
	t.finalized = true
	return t
}

// AddCOO returns the finalized sum A + B of two same-shaped finalized
// matrices (entries with equal coordinates fold).
func (c *COO) AddCOO(other *COO) *COO {
	c.mustFinal("AddCOO")
	other.mustFinal("AddCOO")
	if c.rows != other.rows || c.cols != other.cols {
		panic(Usagef("core: AddCOO shape mismatch: %dx%d vs %dx%d", c.rows, c.cols, other.rows, other.cols))
	}
	out := NewCOO(c.rows, c.cols)
	out.I = slices.Concat(c.I, other.I)
	out.J = slices.Concat(c.J, other.J)
	out.V = slices.Concat(c.V, other.V)
	out.Finalize()
	return out
}

// Prune removes stored entries with |value| <= eps from a finalized
// COO in place and returns the number removed. Assembly cancellation
// commonly leaves explicit zeros; pruning them shrinks every downstream
// format.
func (c *COO) Prune(eps float64) int {
	c.mustFinal("Prune")
	w := 0
	for k := range c.V {
		// Keep anything NOT provably small — NaN survives, so a broken
		// assembly stays visible instead of being silently dropped.
		if !(math.Abs(c.V[k]) <= eps) {
			c.I[w], c.J[w], c.V[w] = c.I[k], c.J[k], c.V[k]
			w++
		}
	}
	removed := len(c.V) - w
	c.I = c.I[:w]
	c.J = c.J[:w]
	c.V = c.V[:w]
	return removed
}

// Scale multiplies every stored value by alpha in place.
func (c *COO) Scale(alpha float64) {
	for k := range c.V {
		c.V[k] *= alpha
	}
}

// Equal reports entry-wise equality of two finalized matrices
// (dimensions, coordinates and exact values).
func (c *COO) Equal(other *COO) bool {
	c.mustFinal("Equal")
	other.mustFinal("Equal")
	if c.rows != other.rows || c.cols != other.cols || len(c.V) != len(other.V) {
		return false
	}
	for k := range c.V {
		if c.I[k] != other.I[k] || c.J[k] != other.J[k] || !SameBits(c.V[k], other.V[k]) {
			return false
		}
	}
	return true
}

// SpMV computes y = A*x directly from the triplets (reference kernel;
// formats have much faster ones). Requires a finalized COO only so that
// duplicates have been folded.
func (c *COO) SpMV(y, x []float64) {
	c.mustFinal("SpMV")
	for i := range y[:c.rows] {
		y[i] = 0
	}
	for k := range c.V {
		y[c.I[k]] += c.V[k] * x[c.J[k]]
	}
}

func (c *COO) mustFinal(op string) {
	if !c.finalized {
		panic(Usagef("core: COO.%s requires a finalized COO; call Finalize first", op))
	}
}
