package csr

import (
	"math/rand"
	"testing"

	"spmv/internal/core"
	"spmv/internal/matgen"
	"spmv/internal/testmat"
)

func TestCSRConformance(t *testing.T) {
	testmat.CheckFormat(t, func(c *core.COO) (core.Format, error) { return FromCOO(c) })
}

func TestFromCOOPaperExample(t *testing.T) {
	// The 6x6 matrix of the paper's Fig 1 with its published CSR arrays.
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
	m, err := FromCOO(c)
	if err != nil {
		t.Fatal(err)
	}
	wantRowPtr := []int32{0, 2, 5, 6, 9, 12, 16}
	wantColInd := []int32{0, 1, 1, 3, 5, 2, 2, 4, 5, 0, 3, 4, 0, 2, 3, 5}
	wantValues := []float64{5.4, 1.1, 6.3, 7.7, 8.8, 1.1, 2.9, 3.7, 2.9, 9.0, 1.1, 4.5, 1.1, 2.9, 3.7, 1.1}
	for i, w := range wantRowPtr {
		if m.RowPtr[i] != w {
			t.Fatalf("RowPtr = %v, want %v", m.RowPtr, wantRowPtr)
		}
	}
	for i, w := range wantColInd {
		if m.ColInd[i] != w {
			t.Fatalf("ColInd = %v, want %v", m.ColInd, wantColInd)
		}
	}
	for i, w := range wantValues {
		if m.Values[i] != w {
			t.Fatalf("Values = %v, want %v", m.Values, wantValues)
		}
	}
}

func TestSizeBytesMatchesPaperFormula(t *testing.T) {
	c := matgen.Stencil2D(10)
	m, _ := FromCOO(c)
	want := int64(m.NNZ())*(4+8) + int64(m.Rows()+1)*4
	if m.SizeBytes() != want {
		t.Errorf("SizeBytes = %d, want %d", m.SizeBytes(), want)
	}
}

func TestSplitBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := matgen.RandomUniform(rng, 4000, 4000, 16, matgen.Values{})
	m, _ := FromCOO(c)
	for _, n := range []int{2, 4, 8} {
		chunks := m.Split(n)
		if len(chunks) != n {
			t.Fatalf("Split(%d) gave %d chunks", n, len(chunks))
		}
		avg := float64(m.NNZ()) / float64(n)
		for _, ch := range chunks {
			ratio := float64(ch.NNZ()) / avg
			if ratio < 0.9 || ratio > 1.1 {
				t.Errorf("Split(%d): chunk nnz ratio %v outside [0.9,1.1]", n, ratio)
			}
		}
	}
}

func TestChunkSpMVDoesNotTouchOtherRows(t *testing.T) {
	c := matgen.Stencil2D(8)
	m, _ := FromCOO(c)
	chunks := m.Split(4)
	x := testmat.RandVec(rand.New(rand.NewSource(1)), m.Cols())
	y := make([]float64, m.Rows())
	const sentinel = 12345.0
	for i := range y {
		y[i] = sentinel
	}
	lo, hi := chunks[1].RowRange()
	chunks[1].SpMV(y, x)
	for i := range y {
		inside := i >= lo && i < hi
		if !inside && y[i] != sentinel {
			t.Fatalf("chunk [%d,%d) wrote y[%d]", lo, hi, i)
		}
		if inside && y[i] == sentinel {
			t.Fatalf("chunk [%d,%d) did not write y[%d]", lo, hi, i)
		}
	}
}

func TestTraceStreamsAreCoalesced(t *testing.T) {
	c := matgen.Stencil2D(12)
	m, _ := FromCOO(c)
	a := core.NewArena()
	m.Place(a)
	xBase := a.Alloc(int64(m.Cols()) * 8)
	yBase := a.Alloc(int64(m.Rows()) * 8)
	var colIndLines int
	for _, ch := range m.Split(1) {
		ch.(core.Tracer).TraceSpMV(xBase, yBase, func(acc core.Access) {
			if acc.Addr >= m.colIndBase && acc.Addr < m.colIndBase+uint64(m.NNZ())*4 {
				colIndLines++
			}
		})
	}
	// col_ind is streamed: ~nnz*4/64 lines, not nnz accesses.
	maxLines := m.NNZ()*4/core.LineSize + 2
	if colIndLines > maxLines {
		t.Errorf("col_ind emitted %d accesses, want <= %d line-granular", colIndLines, maxLines)
	}
	if colIndLines == 0 {
		t.Error("no col_ind accesses traced")
	}
}

func BenchmarkSpMVStencil(b *testing.B) {
	m, _ := FromCOO(matgen.Stencil2D(128))
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
