package core

import (
	"math/bits"
	"slices"
)

// Finalize's stable sort (DESIGN.md §21). Rows are put in order by an
// LSD radix sort, which Finalize skips when the triplets arrive in row
// order, as every generator's do. Columns are then put in order row by
// row. Both steps keep equal keys in insertion order, so Finalize folds
// a repeated coordinate's values in the order they were added.

// shortRow is the longest row sortCols insertion-sorts; longer rows
// are sorted as packed keys. A 7-point stencil row is one insertion
// sort of seven.
const shortRow = 32

// sortRows stably reorders the triplets by row with an LSD radix sort
// over digits of the row index. A digit is 16 bits wide, or as wide as
// the bit length of Len() when that is smaller (but at least 8), so
// the counts and the scratch copy depend on Len() only, never on
// Rows(): a header that declares 2^31-1 rows costs nothing here. A
// digit that every triplet shares is skipped.
func (c *COO) sortRows() {
	n := len(c.V)
	width := min(16, max(8, bits.Len(uint(n))))
	count := make([]int, 1<<width)
	mask := int32(len(count) - 1)
	var i2, j2 []int32
	var v2 []float64
	for shift := 0; shift < 31; shift += width {
		clear(count)
		for _, i := range c.I {
			count[i>>shift&mask]++
		}
		if count[c.I[0]>>shift&mask] == n {
			continue
		}
		sum := 0
		for d, k := range count {
			count[d] = sum
			sum += k
		}
		if i2 == nil {
			i2, j2, v2 = make([]int32, n), make([]int32, n), make([]float64, n)
		}
		for k, i := range c.I {
			d := i >> shift & mask
			p := count[d]
			count[d]++
			i2[p], j2[p], v2[p] = i, c.J[k], c.V[k]
		}
		c.I, i2 = i2, c.I
		c.J, j2 = j2, c.J
		c.V, v2 = v2, c.V
	}
}

// sortCols stably sorts each row of row-ordered triplets by column.
// Rows already in order are skipped.
func (c *COO) sortCols() {
	var keys []uint64
	var vals []float64
	for s := 0; s < len(c.I); {
		row, e, sorted := c.I[s], s+1, true
		for ; e < len(c.I) && c.I[e] == row; e++ {
			if c.J[e] < c.J[e-1] {
				sorted = false
			}
		}
		switch {
		case sorted:
		case e-s <= shortRow:
			insertionSort(c.J[s:e], c.V[s:e])
		default:
			keys, vals = keySort(c.J[s:e], c.V[s:e], keys, vals)
		}
		s = e
	}
}

// insertionSort stably sorts j, and v along with it.
func insertionSort(j []int32, v []float64) {
	for a := 1; a < len(j); a++ {
		cj, cv := j[a], v[a]
		b := a
		for ; b > 0 && j[b-1] > cj; b-- {
			j[b], v[b] = j[b-1], v[b-1]
		}
		j[b], v[b] = cj, cv
	}
}

// keySort stably sorts j, and v along with it, as packed (column,
// position) keys: the keys are distinct, so any sort of them keeps
// equal columns in position order. keys and vals are scratch, returned
// for reuse.
func keySort(j []int32, v []float64, keys []uint64, vals []float64) ([]uint64, []float64) {
	keys = keys[:0]
	for p, col := range j {
		keys = append(keys, uint64(col)<<32|uint64(p))
	}
	slices.Sort(keys)
	vals = append(vals[:0], v...)
	for p, k := range keys {
		j[p], v[p] = int32(k>>32), vals[uint32(k)]
	}
	return keys, vals
}
