package spmv_test

import (
	"bytes"
	"math"
	"testing"

	"spmv"
)

// assembleFig1 builds the paper's Fig 1 example matrix.
func assembleFig1() *spmv.COO {
	vals := [][]float64{
		{5.4, 1.1, 0, 0, 0, 0},
		{0, 6.3, 0, 7.7, 0, 8.8},
		{0, 0, 1.1, 0, 0, 0},
		{0, 0, 2.9, 0, 3.7, 2.9},
		{9.0, 0, 0, 1.1, 4.5, 0},
		{1.1, 0, 2.9, 3.7, 0, 1.1},
	}
	c := spmv.NewCOO(6, 6)
	for i, row := range vals {
		for j, v := range row {
			if v != 0 {
				c.Add(i, j, v)
			}
		}
	}
	return c
}

// TestAllConstructorsAgree builds Fig 1 under every registry name (and
// csr-du's RLE encoder) and checks each multiplies like CSR. sym-csr
// must refuse it: Fig 1 is not symmetric.
func TestAllConstructorsAgree(t *testing.T) {
	c := assembleFig1()
	x := []float64{1, -2, 3, 0.5, -1, 2}
	want := make([]float64, 6)
	ref, err := spmv.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	ref.SpMV(want, x)

	check := func(name string, f spmv.Format, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tol := 1e-12
		if name == "csr32" {
			tol = 1e-5 // values rounded to float32
		}
		got := make([]float64, 6)
		f.SpMV(got, x)
		for i := range got {
			if math.Abs(got[i]-want[i]) > tol {
				t.Errorf("%s: y[%d] = %v, want %v", name, i, got[i], want[i])
			}
		}
		if f.NNZ() != 16 {
			t.Errorf("%s: NNZ = %d", name, f.NNZ())
		}
	}
	for _, name := range spmv.FormatNames() {
		f, err := spmv.Build(c, spmv.WithFormat(name))
		if name == "sym-csr" {
			if err == nil {
				t.Error("sym-csr accepted the unsymmetric Fig 1")
			}
			continue
		}
		check(name, f, err)
	}
	f, err := spmv.Build(c, spmv.WithFormat("csr-du"), spmv.WithDUOptions(spmv.DUOptions{RLE: true}))
	check("csr-du-rle", f, err)
}

func TestExecutorQuickstart(t *testing.T) {
	c := assembleFig1()
	m, err := spmv.Build(c, spmv.WithFormat("csr-du"))
	if err != nil {
		t.Fatal(err)
	}
	e, err := spmv.NewExecutorOpts(m, spmv.ExecOptions{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	x := []float64{1, 1, 1, 1, 1, 1}
	y := make([]float64, 6)
	e.Run(y, x)
	want := []float64{6.5, 22.8, 1.1, 9.5, 14.6, 8.8}
	for i := range want {
		if math.Abs(y[i]-want[i]) > 1e-12 {
			t.Errorf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestSolverQuickstart(t *testing.T) {
	// 1D Laplacian, solve with CG through the public API.
	n := 64
	c := spmv.NewCOO(n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, 2)
		if i > 0 {
			c.Add(i, i-1, -1)
		}
		if i < n-1 {
			c.Add(i, i+1, -1)
		}
	}
	m, _ := spmv.Build(c, spmv.WithFormat("csr-vi"))
	op, err := spmv.NewOperator(m)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, n)
	res, err := spmv.CG(op, b, x, 1e-10, 10*n)
	if err != nil || !res.Converged {
		t.Fatalf("CG: %v %+v", err, res)
	}
	// Check A*x = b.
	ax := make([]float64, n)
	m.SpMV(ax, x)
	for i := range ax {
		if math.Abs(ax[i]-b[i]) > 1e-7 {
			t.Fatalf("residual at %d: %v", i, ax[i]-b[i])
		}
	}
}

func TestMatrixMarketRoundTripPublic(t *testing.T) {
	c := assembleFig1()
	c.Finalize()
	var buf bytes.Buffer
	if err := spmv.WriteMatrixMarket(&buf, c); err != nil {
		t.Fatal(err)
	}
	back, err := spmv.ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != c.Len() {
		t.Errorf("nnz %d vs %d", back.Len(), c.Len())
	}
}

func TestCompressionReporting(t *testing.T) {
	c := assembleFig1()
	if ws := spmv.WorkingSet(c); ws <= 0 {
		t.Errorf("WorkingSet = %d", ws)
	}
	vi, _ := spmv.Build(c, spmv.WithFormat("csr-vi"))
	if r := spmv.CompressionRatio(vi); r <= 0 || r >= 1.5 {
		t.Errorf("CompressionRatio = %v", r)
	}
	if vi.(*spmv.CSRVI).TTU() != 16.0/9.0 {
		t.Errorf("TTU = %v", vi.(*spmv.CSRVI).TTU())
	}
	// Fig 1's row 3 has a zero diagonal, so Jacobi must refuse it...
	if _, err := spmv.JacobiInvDiag(c); err == nil {
		t.Error("JacobiInvDiag accepted zero diagonal")
	}
	// ...and accept a diagonally complete matrix.
	d := spmv.NewCOO(3, 3)
	for i := 0; i < 3; i++ {
		d.Add(i, i, float64(i+2))
	}
	d.Finalize()
	invD, err := spmv.JacobiInvDiag(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(invD) != 3 || invD[0] != 0.5 {
		t.Errorf("invDiag = %v", invD)
	}
}
