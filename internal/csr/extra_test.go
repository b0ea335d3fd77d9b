package csr

import (
	"math/rand"
	"testing"

	"spmv/internal/core"
	"spmv/internal/matgen"
	"spmv/internal/testmat"
)

func TestTripletsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := matgen.FEMLike(rng, 150, 5, matgen.Values{})
	m, _ := FromCOO(c)
	back := m.Triplets()
	if back.Len() != c.Len() || back.Rows() != c.Rows() || back.Cols() != c.Cols() {
		t.Fatalf("shape mismatch")
	}
	for k := 0; k < c.Len(); k++ {
		i1, j1, v1 := c.At(k)
		i2, j2, v2 := back.At(k)
		if i1 != i2 || j1 != j2 || v1 != v2 {
			t.Fatalf("entry %d differs", k)
		}
	}
}

func TestForEachRowMajorOrder(t *testing.T) {
	c := matgen.Stencil2D(7)
	m, _ := FromCOO(c)
	lastI, lastJ, count := -1, -1, 0
	m.ForEach(func(i, j int, v float64) {
		if i < lastI || (i == lastI && j <= lastJ) {
			t.Fatalf("order violation at (%d,%d)", i, j)
		}
		lastI, lastJ = i, j
		count++
	})
	if count != m.NNZ() {
		t.Errorf("visited %d of %d", count, m.NNZ())
	}
}

func TestSpMMInPackage(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := matgen.Banded(rng, 80, 5, 4, matgen.Values{})
	m, _ := FromCOO(c)
	k := 4
	x := testmat.RandVec(rng, m.Cols()*k)
	y := make([]float64, m.Rows()*k)
	m.SpMVBatch(y, x, k)
	for col := 0; col < k; col++ {
		xc := make([]float64, m.Cols())
		for j := range xc {
			xc[j] = x[j*k+col]
		}
		want := make([]float64, m.Rows())
		m.SpMV(want, xc)
		for i := range want {
			if diff := y[i*k+col] - want[i]; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("col %d row %d: %v vs %v", col, i, y[i*k+col], want[i])
			}
		}
	}
}

func TestCSR32Trace(t *testing.T) {
	c := matgen.Stencil2D(10)
	m, _ := From32(c)
	a := core.NewArena()
	m.Place(a)
	xBase := a.Alloc(int64(m.Cols()) * 8)
	yBase := a.Alloc(int64(m.Rows()) * 8)
	var xGathers, writes, valLines int
	for _, ch := range m.Split(2) {
		ch.(core.Tracer).TraceSpMV(xBase, yBase, func(acc core.Access) {
			if acc.Addr >= xBase && acc.Addr < xBase+uint64(m.Cols())*8 {
				xGathers++
			}
			if acc.Write {
				writes++
			}
			if acc.Addr >= m.valBase && acc.Addr < m.valBase+uint64(m.NNZ())*4 {
				valLines++
			}
		})
	}
	if xGathers != m.NNZ() {
		t.Errorf("x gathers = %d, want %d", xGathers, m.NNZ())
	}
	if writes == 0 {
		t.Error("no y writes traced")
	}
	// 4-byte values: about half the lines of the 8-byte stream.
	maxLines := m.NNZ()*4/core.LineSize + 2
	if valLines > maxLines {
		t.Errorf("value stream lines = %d, want <= %d", valLines, maxLines)
	}
}

func TestCSR32MetaAccessors(t *testing.T) {
	c := matgen.Stencil2D(4)
	m, _ := From32(c)
	if m.Rows() != 16 || m.Cols() != 16 || m.NNZ() != c.Len() {
		t.Errorf("meta: %d %d %d", m.Rows(), m.Cols(), m.NNZ())
	}
}
