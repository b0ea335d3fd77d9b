package csrvi_test

import (
	"math"
	"math/rand"
	"testing"

	"spmv/internal/core"
	"spmv/internal/csr"
	"spmv/internal/matgen"
	"spmv/internal/testmat"
)

func TestConformance(t *testing.T) {
	testmat.CheckFormat(t, func(c *core.COO) (core.Format, error) { return csr.FromCOOVI(c) })
}

// TestFig4Example checks the value-indexing structure against the
// paper's Fig 4: the Fig 1 matrix has unique values
// (5.4 1.1 6.3 7.7 8.8 2.9 3.7 9.0 4.5) in first-appearance order and
// val_ind (0 1 2 3 4 1 5 6 5 7 1 8 1 5 6 1).
func TestFig4Example(t *testing.T) {
	vals := [][]float64{
		{5.4, 1.1, 0, 0, 0, 0},
		{0, 6.3, 0, 7.7, 0, 8.8},
		{0, 0, 1.1, 0, 0, 0},
		{0, 0, 2.9, 0, 3.7, 2.9},
		{9.0, 0, 0, 1.1, 4.5, 0},
		{1.1, 0, 2.9, 3.7, 0, 1.1},
	}
	c := core.NewCOO(6, 6)
	for i, row := range vals {
		for j, v := range row {
			if v != 0 {
				c.Add(i, j, v)
			}
		}
	}
	m, err := csr.FromCOOVI(c)
	if err != nil {
		t.Fatal(err)
	}
	wantUnique := []float64{5.4, 1.1, 6.3, 7.7, 8.8, 2.9, 3.7, 9.0, 4.5}
	wantInd := []uint8{0, 1, 2, 3, 4, 1, 5, 6, 5, 7, 1, 8, 1, 5, 6, 1}
	if len(m.Unique) != len(wantUnique) {
		t.Fatalf("Unique = %v, want %v", m.Unique, wantUnique)
	}
	for i, w := range wantUnique {
		if m.Unique[i] != w {
			t.Fatalf("Unique = %v, want %v", m.Unique, wantUnique)
		}
	}
	if m.IndexWidth() != 1 || m.VI8 == nil {
		t.Fatalf("IndexWidth = %d, want 1", m.IndexWidth())
	}
	for i, w := range wantInd {
		if m.VI8[i] != w {
			t.Fatalf("VI8 = %v, want %v", m.VI8, wantInd)
		}
	}
	if ttu := m.TTU(); math.Abs(ttu-16.0/9.0) > 1e-12 {
		t.Errorf("TTU = %v, want 16/9", ttu)
	}
}

// cycled returns a rows x 1000 matrix, every entry present, whose
// values cycle through unique distinct values in stream order.
func cycled(rows, unique int) *core.COO {
	c := core.NewCOO(rows, 1000)
	for i := 0; i < rows; i++ {
		for j := 0; j < 1000; j++ {
			c.Add(i, j, float64((i*1000+j)%unique)+0.5)
		}
	}
	c.Finalize()
	return c
}

func TestIndexWidthSelection(t *testing.T) {
	for _, tc := range []struct{ rows, unique, width int }{
		{1, 256, 1},
		{1, 257, 2},
		{200, 65536, 2},
		{200, 65537, 4},
	} {
		m, err := csr.FromCOOVI(cycled(tc.rows, tc.unique))
		if err != nil {
			t.Fatal(err)
		}
		if w := m.IndexWidth(); w != tc.width || len(m.Unique) != tc.unique {
			t.Errorf("%d unique over %d non-zeros -> width %d with %d unique, want %d",
				tc.unique, m.NNZ(), w, len(m.Unique), tc.width)
		}
	}
}

func TestSizeBytesFormulaAndReduction(t *testing.T) {
	// Stencil matrix: 2 unique values, ttu huge -> big reduction.
	c := matgen.Stencil2D(40)
	m, _ := csr.FromCOOVI(c)
	ref, _ := csr.FromCOO(c)
	want := int64(m.Rows()+1)*4 + int64(m.NNZ())*4 + int64(m.NNZ())*1 + int64(len(m.Unique))*8
	if m.SizeBytes() != want {
		t.Errorf("SizeBytes = %d, want %d", m.SizeBytes(), want)
	}
	if !m.Applicable() {
		t.Error("stencil matrix should be CSR-VI applicable")
	}
	// values 8B -> val_ind 1B: matrix shrinks by ~7 bytes/nnz.
	saved := ref.SizeBytes() - m.SizeBytes()
	perNNZ := float64(saved) / float64(m.NNZ())
	if perNNZ < 6.5 {
		t.Errorf("saved %.2f bytes/nnz, want ~7", perNNZ)
	}
}

// All-distinct values: no dictionary pays, so the matrix keeps the
// plain codec at CSR's size.
func TestNotApplicableOnRandomValues(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := matgen.RandomUniform(rng, 300, 300, 6, matgen.Values{})
	m, _ := csr.FromCOOVI(c)
	ref, _ := csr.FromCOO(c)
	if m.Applicable() {
		t.Errorf("all-distinct values reported applicable (ttu=%v)", m.TTU())
	}
	if m.TTU() != 1 || m.IndexWidth() != 0 || m.SizeBytes() != ref.SizeBytes() {
		t.Errorf("TTU %v, width %d, %d bytes; want the plain codec: 1, 0, CSR's %d",
			m.TTU(), m.IndexWidth(), m.SizeBytes(), ref.SizeBytes())
	}
}

func TestSignedZerosDistinct(t *testing.T) {
	c := core.NewCOO(1, 4)
	for j := 0; j < 4; j++ {
		c.Add(0, j, math.Copysign(0, float64(j%2)-0.5))
	}
	c.Finalize()
	m, _ := csr.FromCOOVI(c)
	if len(m.Unique) != 2 || m.IndexWidth() != 1 {
		t.Errorf("expected +0 and -0 distinct in a dictionary, got %d unique at width %d",
			len(m.Unique), m.IndexWidth())
	}
}

func TestTTUEmptyMatrix(t *testing.T) {
	c := core.NewCOO(3, 3)
	c.Finalize()
	m, _ := csr.FromCOOVI(c)
	if m.TTU() != 0 || m.Applicable() {
		t.Errorf("empty matrix: TTU=%v Applicable=%v", m.TTU(), m.Applicable())
	}
}

func TestSpMVAllWidthsMatchCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, unique := range []int{3, 200, 300, 70000} {
		c := matgen.RandomUniform(rng, 200, 500, 9, matgen.Values{Unique: unique})
		m, _ := csr.FromCOOVI(c)
		ref, _ := csr.FromCOO(c)
		x := testmat.RandVec(rng, 500)
		y1 := make([]float64, 200)
		y2 := make([]float64, 200)
		m.SpMV(y1, x)
		ref.SpMV(y2, x)
		testmat.AssertClose(t, "SpMV", y1, y2, 1e-12)
	}
}

func TestTraceEmitsUniqueGathers(t *testing.T) {
	c := matgen.Stencil2D(10)
	m, _ := csr.FromCOOVI(c)
	a := core.NewArena()
	m.Place(a)
	xBase := a.Alloc(int64(m.Cols()) * 8)
	yBase := a.Alloc(int64(m.Rows()) * 8)
	// Place lays out row_ptr, col_ind, val_ind and then the table.
	layout := core.NewArena()
	layout.Alloc(int64(len(m.RowPtr)) * 4)
	layout.Alloc(int64(len(m.ColInd)) * 4)
	layout.Alloc(m.ValIndBytes())
	uniqBase := layout.Alloc(int64(len(m.Unique)) * 8)
	var uniqueHits int
	for _, ch := range m.Split(2) {
		ch.(core.Tracer).TraceSpMV(xBase, yBase, func(acc core.Access) {
			if acc.Addr >= uniqBase && acc.Addr < uniqBase+uint64(len(m.Unique))*8 {
				uniqueHits++
			}
		})
	}
	if uniqueHits != m.NNZ() {
		t.Errorf("unique-table gathers = %d, want %d", uniqueHits, m.NNZ())
	}
}

func BenchmarkSpMVStencilVI(b *testing.B) {
	m, _ := csr.FromCOOVI(matgen.Stencil2D(128))
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
