// Package csrduvi_test holds the tests of CSR-DU-VI, the combination of
// both of the paper's compression schemes: csrdu's delta units on the
// index side and csrvi's value table on the value side. The format is a
// csrdu.Matrix under the dictionary codec (csrdu.FromCOOVI); these
// tests build it through that exported API only.
package csrduvi_test

import (
	"math/rand"
	"testing"

	"spmv/internal/core"
	"spmv/internal/csr"
	"spmv/internal/csrdu"
	"spmv/internal/matgen"
	"spmv/internal/testmat"
)

func fromCOO(c *core.COO) (*csrdu.Matrix, error) { return csrdu.FromCOOVI(c, csrdu.Options{}) }

func TestConformance(t *testing.T) {
	testmat.CheckFormat(t, func(c *core.COO) (core.Format, error) { return fromCOO(c) })
}

func TestConformanceRLE(t *testing.T) {
	testmat.CheckFormat(t, func(c *core.COO) (core.Format, error) {
		return csrdu.FromCOOVI(c, csrdu.Options{RLE: true})
	})
}

func TestSmallerThanBothParentsOnStencil(t *testing.T) {
	// A stencil matrix compresses on both axes: CSR-DU-VI must beat
	// both CSR-DU (which keeps 8-byte values) and CSR-VI (which keeps
	// 4-byte col_ind).
	c := matgen.Stencil2D(48)
	duvi, err := fromCOO(c)
	if err != nil {
		t.Fatal(err)
	}
	du, _ := csrdu.FromCOO(c)
	vi, _ := csr.FromCOOVI(c)
	if duvi.SizeBytes() >= du.SizeBytes() {
		t.Errorf("duvi %d >= du %d", duvi.SizeBytes(), du.SizeBytes())
	}
	if duvi.SizeBytes() >= vi.SizeBytes() {
		t.Errorf("duvi %d >= vi %d", duvi.SizeBytes(), vi.SizeBytes())
	}
	// Stencil: 1-byte deltas + 1-byte value indices ≈ 2-3 bytes/nnz vs 12.
	perNNZ := float64(duvi.SizeBytes()) / float64(duvi.NNZ())
	if perNNZ > 3.5 {
		t.Errorf("duvi bytes/nnz = %v, want < 3.5 on stencil", perNNZ)
	}
}

func TestMatchesParentsNumerically(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := matgen.FEMLike(rng, 350, 6, matgen.Values{Unique: 40})
	duvi, _ := fromCOO(c)
	du, _ := csrdu.FromCOO(c)
	x := testmat.RandVec(rng, c.Cols())
	y1 := make([]float64, c.Rows())
	y2 := make([]float64, c.Rows())
	duvi.SpMV(y1, x)
	du.SpMV(y2, x)
	testmat.AssertClose(t, "duvi vs du", y1, y2, 1e-12)
}

func TestTTUAndWidth(t *testing.T) {
	c := matgen.Stencil2D(20)
	m, _ := fromCOO(c)
	if len(m.Unique) != 2 {
		t.Fatalf("unique = %d, want 2", len(m.Unique))
	}
	if m.IndexWidth() != 1 {
		t.Errorf("width = %d, want 1", m.IndexWidth())
	}
	if m.TTU() != float64(m.NNZ())/2 {
		t.Errorf("TTU = %v", m.TTU())
	}
	if m.Stats().Units == 0 {
		t.Error("no unit stats")
	}
}

func TestEmptyMatrix(t *testing.T) {
	c := core.NewCOO(4, 4)
	c.Finalize()
	m, _ := fromCOO(c)
	if m.TTU() != 0 {
		t.Errorf("TTU = %v", m.TTU())
	}
	y := []float64{9, 9, 9, 9}
	m.SpMV(y, make([]float64, 4))
	for i, v := range y {
		if v != 0 {
			t.Errorf("y[%d] = %v", i, v)
		}
	}
}

func BenchmarkSpMVStencilDUVI(b *testing.B) {
	m, _ := fromCOO(matgen.Stencil2D(128))
	x := make([]float64, m.Cols())
	y := make([]float64, m.Rows())
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	b.SetBytes(m.SizeBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SpMV(y, x)
	}
}
