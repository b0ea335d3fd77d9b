package csrvi_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"spmv/internal/core"
	"spmv/internal/csr"
	"spmv/internal/csrdu"
	"spmv/internal/csrvi"
	"spmv/internal/matgen"
	"spmv/internal/parallel"
	"spmv/internal/testmat"
)

// u8Matrix is a csr-vi or csr-du-vi matrix under the u8 codec, with
// its val_ind stream and table.
type u8Matrix struct {
	u8Format
	vi8    *[]uint8
	unique *[]float64
}

type u8Format interface {
	testmat.BatchSplitter
	testmat.RowMajor
	core.Verifier
}

// u8Matrices returns a 300-row matrix whose values cycle through
// exactly unique distinct ones, as csr-vi and as csr-du-vi; both must
// hold a 1-byte val_ind over a table of that many values.
func u8Matrices(t *testing.T, unique int) []u8Matrix {
	t.Helper()
	c := matgen.RandomUniform(rand.New(rand.NewSource(int64(unique))), 300, 300, 9, matgen.Values{})
	for k := range c.V {
		c.V[k] = float64(k%unique) + 0.25
	}
	vi, err := csr.FromCOOVI(c.Clone())
	if err != nil {
		t.Fatal(err)
	}
	duvi, err := csrdu.FromCOOVI(c.Clone(), csrdu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ms := []u8Matrix{{vi, &vi.VI8, &vi.Unique}, {duvi, &duvi.VI8, &duvi.Unique}}
	for _, m := range ms {
		if *m.vi8 == nil || len(*m.unique) != unique || csrvi.Table(*m.unique) == nil {
			t.Fatalf("%s: want a u8 dictionary of %d values on the table, got %d values", m.Name(), unique, len(*m.unique))
		}
	}
	return ms
}

// The table's edges: a dictionary of 1 value (255 NaN entries behind
// it) and of 256 (none). Each must multiply bitwise like the
// ForEach-order reference whole, on every chunk of Split(1..9) and
// through the row executor at several thread counts.
func TestTableBitwiseAtEdges(t *testing.T) {
	for _, unique := range []int{1, 256} {
		for _, m := range u8Matrices(t, unique) {
			t.Run(fmt.Sprintf("%s/unique%d", m.Name(), unique), func(t *testing.T) {
				ref := testmat.Reference(m)
				testmat.CheckBitwise(t, m, 9, ref, 1, 8)
				x := testmat.RandVec(rand.New(rand.NewSource(9)), m.Cols())
				want := ref(x, 1)
				for _, threads := range []int{1, 2, 3, 7} {
					y := run(t, m, threads, x)
					for i := range y {
						if math.Float64bits(y[i]) != math.Float64bits(want[i]) {
							t.Fatalf("T=%d: y[%d] = %v, want %v", threads, i, y[i], want[i])
						}
					}
				}
			})
		}
	}
}

// run multiplies through the row executor at the given thread count.
func run(t *testing.T, f core.Format, threads int, x []float64) []float64 {
	t.Helper()
	e, err := parallel.NewExecutor(f, threads)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	y := make([]float64, f.Rows())
	if err := e.Run(y, x); err != nil {
		t.Fatal(err)
	}
	return y
}

// badRow points one val_ind entry of row 17 past the table, as a
// mutation after construction would, and returns the row.
func badRow(m u8Matrix) int {
	const row = 17
	k := 0
	m.ForEach(func(i, _ int, _ float64) {
		if i < row {
			k++
		}
	})
	(*m.vi8)[k] = uint8(len(*m.unique))
	return row
}

// An index one past the table, which Verify refuses, reads the table's
// NaN padding: the row it lands in comes out NaN, never finite, and no
// other row changes.
func TestTableOutOfRangeIndexReadsNaN(t *testing.T) {
	for _, m := range u8Matrices(t, 40) {
		t.Run(m.Name(), func(t *testing.T) {
			x := make([]float64, m.Cols())
			for i := range x {
				x[i] = 1
			}
			row := badRow(m)
			if err := m.Verify(); !errors.Is(err, core.ErrCorrupt) {
				t.Fatalf("Verify: got %v, want ErrCorrupt", err)
			}
			y := make([]float64, m.Rows())
			m.SpMV(y, x)
			for _, got := range [][]float64{y, run(t, m, 2, x)} {
				for i, v := range got {
					if (i == row) != math.IsNaN(v) {
						t.Fatalf("y[%d] = %v: want NaN in row %d alone", i, v, row)
					}
				}
			}
		})
	}
}

// A table replaced after construction by a slice without the table's
// capacity still multiplies bitwise. csr-vi then takes the checked
// walk, which panics on an index past the table rather than reading
// past it; csr-du-vi reads a padded copy, whose NaN marks the row.
func TestShortTableTakesCheckedPath(t *testing.T) {
	for _, m := range u8Matrices(t, 40) {
		t.Run(m.Name(), func(t *testing.T) {
			*m.unique = slices.Clip(slices.Clone(*m.unique))
			if csrvi.Table(*m.unique) != nil {
				t.Fatal("a clipped table still has the u8 table's capacity")
			}
			testmat.CheckBitwise(t, m, 3, testmat.Reference(m), 1, 8)
			x := make([]float64, m.Cols())
			y := make([]float64, m.Rows())
			row := badRow(m)
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				m.SpMV(y, x)
				return false
			}()
			if _, isCSR := m.u8Format.(*csr.Matrix); isCSR != panicked || !isCSR && !math.IsNaN(y[row]) {
				t.Fatalf("index past a short table: panicked %v, y[%d] = %v", panicked, row, y[row])
			}
		})
	}
}
