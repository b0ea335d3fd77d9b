// Package csrvi is the value codec of CSR-VI (CSR Value Index), the
// value compression scheme of the paper's §V, shared by every format
// that indirects its values: csr's csr-vi codec and csrdu's csr-du-vi.
//
// The values array of CSR is replaced by two arrays: vals_unique, which
// holds each distinct numerical value once, and val_ind, which holds for
// every non-zero the index of its value in vals_unique. The index width
// is the narrowest of 1/2/4 bytes that addresses the unique count, so
// for matrices with few distinct values the 8-byte value stream shrinks
// to 1-2 bytes per non-zero — and values are 2/3 of the CSR working set.
//
// The paper reports results where the total-to-unique ratio exceeds 5
// (§VI-E, MinTTU). The encoder's rule is bytes instead (Pays): it
// builds the dictionary only where the val_ind stream plus the table is
// smaller than the 8-byte values it replaces; elsewhere a matrix keeps
// its values plain, in stream order. Construction is one O(nnz) pass
// through an open-addressing hash table (IndexValues) that stops at
// break-even.
//
// Kernels read every value through Load, generic over the stream's
// element type (Value), so one kernel source serves the plain streams
// and the dictionary. A width-1 dictionary's table has capacity 256
// (Pad): its u8 indices then address it through Table with no bounds
// check.
package csrvi

import "math"

// MinTTU is the paper's empirical applicability threshold (§VI-E): a
// matrix is worth CSR-VI where its total-to-unique ratio exceeds it.
const MinTTU = 5.0

// Value is the element type of a value stream: the float64 or float32
// values themselves under a plain codec, their val_ind indices under
// the dictionary codec.
type Value interface {
	float64 | float32 | uint8 | uint16 | uint32
}

// Load returns the value v codes for: v itself, widened to float64,
// under a plain codec, unique[v] under the dictionary codec. V(1)/V(2)
// is 0.5 for the float types and 0 for the index types, a constant in
// each instantiation, so the test folds and the plain instantiation of
// a kernel compiles to the loop it would be without the dictionary. (A
// method on a value-source type costs an indirect call per non-zero; a
// type switch keeps both branches.) The csr and csr-du kernels all read
// values through it.
func Load[V Value](v V, unique []float64) float64 {
	if V(1)/V(2) != 0 {
		return float64(v)
	}
	return unique[int(v)]
}

// Indexed reports whether V is an index stream, the dictionary codec's:
// like Load's test, it is a constant in each instantiation.
func Indexed[V Value]() bool { return V(1)/V(2) == 0 }

// LoadTable is Load for a kernel that holds the u8 table: under a u8
// val_ind stream it returns tab[v], which needs no bounds check, and
// otherwise what Load returns. V(TableSize-1)+1 wraps to 0 for uint8
// alone, so, like Load's test, the choice folds in each instantiation.
// tab must be the table of unique (Table) under a u8 stream; other
// streams never read it.
func LoadTable[V Value](v V, unique []float64, tab *[TableSize]float64) float64 {
	switch {
	case V(1)/V(2) != 0:
		return float64(v)
	case V(TableSize-1)+1 == 0:
		return tab[uint8(v)]
	}
	return unique[int(v)]
}

// TableSize is the capacity Pad gives a width-1 dictionary's table:
// one entry per u8 index.
const TableSize = 256

// Pad returns a copy of unique in an array of capacity TableSize whose
// entries past len(unique) are NaN; a table of TableSize or more values
// is returned as it is. Every width-1 dictionary is built or adopted
// through it, so a u8 index addresses the array (Table) whatever its
// value: one past len(unique), which Verify refuses, reads NaN, never a
// finite value. len(unique) — the stored table, and its bytes — is
// unchanged.
func Pad(unique []float64) []float64 {
	if len(unique) >= TableSize {
		return unique
	}
	t := make([]float64, TableSize)
	copy(t, unique)
	for i := len(unique); i < TableSize; i++ {
		t[i] = math.NaN()
	}
	return t[:len(unique)]
}

// Table returns the TableSize-entry array behind unique, which a u8
// index addresses without a bounds check, or nil where unique's
// capacity is short of it (a table not built through Pad): the kernels
// then take their checked path. It is the table itself, not a copy.
func Table(unique []float64) *[TableSize]float64 {
	if cap(unique) < TableSize {
		return nil
	}
	return (*[TableSize]float64)(unique[:TableSize])
}
