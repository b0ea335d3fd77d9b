package sym

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"spmv/internal/core"
	"spmv/internal/matgen"
	"spmv/internal/testmat"
)

// transposeFromCOO is the reference FromCOO: it checks symmetry
// against a transposed copy of the whole COO, entry by entry, with the
// same tolerance expression, then fills the same arrays.
func transposeFromCOO(c *core.COO, tol float64) (*Matrix, bool) {
	c.Finalize()
	if c.Rows() != c.Cols() {
		return nil, false
	}
	t := c.Transpose()
	if t.Len() != c.Len() {
		return nil, false
	}
	for k := 0; k < c.Len(); k++ {
		i1, j1, v1 := c.At(k)
		i2, j2, v2 := t.At(k)
		if i1 != i2 || j1 != j2 {
			return nil, false
		}
		if math.Abs(v1-v2) > tol*(1+math.Max(math.Abs(v1), math.Abs(v2))) {
			return nil, false
		}
	}
	n := c.Rows()
	m := &Matrix{n: n, Diag: make([]float64, n), RowPtr: make([]int32, n+1), nnzFull: c.Len()}
	for k := 0; k < c.Len(); k++ {
		if i, j, v := c.At(k); i == j {
			m.Diag[i] = v
		} else if j < i {
			m.RowPtr[i+1]++
			m.ColInd = append(m.ColInd, int32(j))
			m.Values = append(m.Values, v)
		}
	}
	for i := 0; i < n; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m, true
}

// sameMatrix reports whether a and b store bitwise the same arrays.
func sameMatrix(a, b *Matrix) bool {
	bits := func(v []float64) []uint64 {
		out := make([]uint64, len(v))
		for i, x := range v {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	return a.n == b.n && a.nnzFull == b.nnzFull &&
		slices.Equal(bits(a.Diag), bits(b.Diag)) && slices.Equal(a.RowPtr, b.RowPtr) &&
		slices.Equal(a.ColInd, b.ColInd) && slices.Equal(bits(a.Values), bits(b.Values))
}

// perturbed returns copies of the symmetric matrix c with one entry
// changed: a value moved by a multiple of the tolerance scale, a value
// made NaN or infinite, an entry dropped, or a new entry added on one
// side only.
func perturbed(rng *rand.Rand, c *core.COO, tol float64) []*core.COO {
	var out []*core.COO
	if c.Len() == 0 {
		return out
	}
	edit := func(f func(v float64) (float64, bool)) *core.COO {
		pick := rng.Intn(c.Len())
		d := core.NewCOO(c.Rows(), c.Cols())
		for k := 0; k < c.Len(); k++ {
			i, j, v := c.At(k)
			keep := true
			if k == pick {
				v, keep = f(v)
			}
			if keep {
				d.Add(i, j, v)
			}
		}
		d.Finalize()
		return d
	}
	scale := func(v float64) float64 { return math.Abs(tol) * (1 + math.Abs(v)) }
	for _, factor := range []float64{0.5, 1, 1 + 1e-9, 2} {
		out = append(out, edit(func(v float64) (float64, bool) { return v + factor*scale(v), true }))
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		out = append(out, edit(func(float64) (float64, bool) { return bad, true }))
	}
	out = append(out, edit(func(v float64) (float64, bool) { return v, false }))
	i, j := rng.Intn(c.Rows()), rng.Intn(c.Cols())
	d := c.Clone()
	d.Add(i, j, 1)
	d.Finalize()
	out = append(out, d)
	return out
}

// TestFromCOOMatchesTransposeCheck compares FromCOO with the
// transpose-based reference: the same matrices accepted and refused,
// and bitwise the same arrays where accepted, on the testmat corpus,
// its symmetrized square cases, and one-entry perturbations of those
// at several tolerances, including zero, negative and NaN.
func TestFromCOOMatchesTransposeCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tols := []float64{0, 1e-12, 0.1, -1, math.NaN()}
	var accepted, refused int
	check := func(name string, c *core.COO) {
		for _, tol := range tols {
			want, ok := transposeFromCOO(c.Clone(), tol)
			got, err := FromCOO(c.Clone(), tol)
			switch {
			case ok != (err == nil):
				t.Errorf("%s tol=%v: reference accepts=%v, FromCOO err=%v", name, tol, ok, err)
			case ok && !sameMatrix(got, want):
				t.Errorf("%s tol=%v: stored arrays differ from the reference", name, tol)
			case ok:
				accepted++
			default:
				refused++
			}
		}
	}
	for _, tc := range testmat.Corpus() {
		check(tc.Name, tc.COO)
		if tc.COO.Rows() != tc.COO.Cols() {
			continue
		}
		s := matgen.Symmetrize(tc.COO.Clone())
		check(tc.Name+"/sym", s)
		for p, d := range perturbed(rng, s, 1e-12) {
			check(fmt.Sprintf("%s/sym/perturbed%d", tc.Name, p), d)
		}
		for p, d := range perturbed(rng, s, 0.1) {
			check(fmt.Sprintf("%s/sym/perturbed-wide%d", tc.Name, p), d)
		}
	}
	if accepted == 0 || refused == 0 {
		t.Errorf("corpus exercised one side only: %d accepted, %d refused", accepted, refused)
	}
}

// TestFromCOOAllocatesOnlyStorage bounds the bytes one FromCOO call
// allocates: the stored arrays plus one n-length int32 cursor array,
// with slack for size-class rounding. A transposed copy of the COO
// (16 bytes a non-zero) would exceed it many times over.
func TestFromCOOAllocatesOnlyStorage(t *testing.T) {
	c := matgen.Stencil2D(200)
	c.Finalize()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := FromCOO(c, 0)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(m.n)
	stored := n*8 + (n+1)*4 + int64(len(m.ColInd))*4 + int64(len(m.Values))*8
	const slack = 64 << 10
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(stored+n*4+slack); got > limit {
		t.Errorf("FromCOO allocated %d bytes; stored arrays %d + cursors %d + slack %d = %d",
			got, stored, n*4, slack, limit)
	}
}
