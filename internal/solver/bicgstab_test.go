package solver

import (
	"math/rand"
	"testing"

	"spmv/internal/core"
	"spmv/internal/csr"
	"spmv/internal/matgen"
	"spmv/internal/testmat"
)

func convectionDiffusion(t *testing.T, n int) (*core.COO, Operator) {
	t.Helper()
	c := matgen.Stencil2D(n)
	ns := core.NewCOO(c.Rows(), c.Cols())
	for k := 0; k < c.Len(); k++ {
		i, j, v := c.At(k)
		if j == i+1 {
			v += 0.4
		}
		if j == i-1 {
			v -= 0.2
		}
		ns.Add(i, j, v)
	}
	ns.Finalize()
	f, _ := csr.FromCOO(ns)
	op, err := FromFormat(f)
	if err != nil {
		t.Fatal(err)
	}
	return ns, op
}

func TestBiCGSTABSolvesNonsymmetric(t *testing.T) {
	c, op := convectionDiffusion(t, 14)
	rng := rand.New(rand.NewSource(1))
	b := testmat.RandVec(rng, op.N)
	x := make([]float64, op.N)
	res, err := BiCGSTAB(op, b, x, 1e-10, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	if r := residual(c, x, b); r > 1e-8 {
		t.Errorf("true residual = %v", r)
	}
}

func TestBiCGSTABAgreesWithGMRES(t *testing.T) {
	_, op := convectionDiffusion(t, 10)
	rng := rand.New(rand.NewSource(2))
	b := testmat.RandVec(rng, op.N)
	x1 := make([]float64, op.N)
	x2 := make([]float64, op.N)
	if _, err := BiCGSTAB(op, b, x1, 1e-11, 5000); err != nil {
		t.Fatal(err)
	}
	if _, err := GMRES(op, b, x2, 40, 1e-11, 5000); err != nil {
		t.Fatal(err)
	}
	testmat.AssertClose(t, "bicgstab vs gmres", x1, x2, 1e-7)
}

func TestBiCGSTABZeroRHS(t *testing.T) {
	_, op := convectionDiffusion(t, 6)
	x := make([]float64, op.N)
	res, err := BiCGSTAB(op, make([]float64, op.N), x, 1e-12, 100)
	if err != nil || !res.Converged || res.Iterations != 0 {
		t.Errorf("zero RHS: %v %+v", err, res)
	}
}

func TestBiCGSTABBadArgs(t *testing.T) {
	_, op := convectionDiffusion(t, 4)
	if _, err := BiCGSTAB(op, make([]float64, 2), make([]float64, op.N), 1e-9, 10); err == nil {
		t.Error("short b accepted")
	}
}

func TestSpMMMatchesRepeatedSpMV(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := matgen.FEMLike(rng, 120, 5, matgen.Values{})
	m, _ := csr.FromCOO(c)
	for _, k := range []int{1, 3, 4, 7} {
		x := testmat.RandVec(rng, m.Cols()*k)
		y := make([]float64, m.Rows()*k)
		m.SpMVBatch(y, x, k)
		// Compare column c against a plain SpMV.
		for col := 0; col < k; col++ {
			xc := make([]float64, m.Cols())
			for j := range xc {
				xc[j] = x[j*k+col]
			}
			want := make([]float64, m.Rows())
			m.SpMV(want, xc)
			got := make([]float64, m.Rows())
			for i := range got {
				got[i] = y[i*k+col]
			}
			testmat.AssertClose(t, "SpMM column", got, want, 1e-12)
		}
	}
}

func TestSpMMPanicsOnBadK(t *testing.T) {
	c := matgen.Stencil2D(3)
	m, _ := csr.FromCOO(c)
	defer func() {
		if recover() == nil {
			t.Error("SpMVBatch(k=0) did not panic")
		}
	}()
	m.SpMVBatch(nil, nil, 0)
}
