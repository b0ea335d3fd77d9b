package autotune

import (
	"math/rand"
	"testing"

	"spmv/internal/core"
	"spmv/internal/csrdu"
	"spmv/internal/matgen"
)

// shapes returns the structurally diverse test matrices the package
// tests share. Fresh instances every call: extraction finalizes in
// place and some callers mutate.
func shapes() map[string]*core.COO {
	return map[string]*core.COO{
		"banded":  matgen.Banded(rand.New(rand.NewSource(1)), 600, 8, 6, matgen.Values{}),
		"random":  matgen.RandomUniform(rand.New(rand.NewSource(2)), 500, 400, 7, matgen.Values{}),
		"skewed":  matgen.SkewedRows(rand.New(rand.NewSource(3)), 400, 4, 7, 0.4, matgen.Values{}),
		"blocks":  matgen.BlockDiag(rand.New(rand.NewSource(4)), 24, 12, matgen.Values{}),
		"stencil": matgen.Stencil2D(24),
		"fem":     matgen.FEMLike(rand.New(rand.NewSource(5)), 500, 9, matgen.Values{}),
		"quant":   matgen.Quantize(matgen.RandomUniform(rand.New(rand.NewSource(6)), 400, 400, 8, matgen.Values{}), rand.New(rand.NewSource(7)), 30),
	}
}

// TestSimulateDUCtlMatchesEncoder pins the size-only control-stream
// simulation byte-for-byte against the real CSR-DU encoder, RLE off
// and on. Any drift between the two makes the csr-du cost predictions
// silently wrong, so this is the load-bearing test of the extractor.
func TestSimulateDUCtlMatchesEncoder(t *testing.T) {
	for name, c := range shapes() {
		ft := Extract(c)
		plain, err := csrdu.FromCOOOpts(c, csrdu.Options{})
		if err != nil {
			t.Fatalf("%s: csrdu build: %v", name, err)
		}
		if got, want := ft.DUCtlBytes, int64(len(plain.Ctl)); got != want {
			t.Errorf("%s: simulated ctl %d bytes, encoder produced %d", name, got, want)
		}
		rle, err := csrdu.FromCOOOpts(c, csrdu.Options{RLE: true})
		if err != nil {
			t.Fatalf("%s: csrdu rle build: %v", name, err)
		}
		if got, want := ft.DUCtlBytesRLE, int64(len(rle.Ctl)); got != want {
			t.Errorf("%s: simulated rle ctl %d bytes, encoder produced %d", name, got, want)
		}
	}
}

func TestExtractStructure(t *testing.T) {
	// A hand matrix with known structure: 4x4, symmetric tridiagonal
	// with constant off-diagonal values.
	c := core.NewCOO(4, 4)
	for i := 0; i < 4; i++ {
		c.Add(i, i, 2)
		if i+1 < 4 {
			c.Add(i, i+1, -1)
			c.Add(i+1, i, -1)
		}
	}
	c.Finalize()
	ft := Extract(c)
	if ft.Rows != 4 || ft.Cols != 4 || ft.NNZ != 10 {
		t.Fatalf("dims: %+v", ft)
	}
	if !ft.Symmetric || ft.SymFrac != 1 {
		t.Errorf("symmetric tridiagonal not detected: frac=%v full=%v", ft.SymFrac, ft.Symmetric)
	}
	if ft.Unique != 2 {
		t.Errorf("unique = %d, want 2", ft.Unique)
	}
	if !ft.Lossless32 {
		t.Errorf("integer-valued matrix should be float32-lossless")
	}
	if ft.DiagNNZ != 4 {
		t.Errorf("diag nnz = %d, want 4", ft.DiagNNZ)
	}
	if ft.Bandwidth != 1 {
		t.Errorf("bandwidth = %d, want 1", ft.Bandwidth)
	}
	if ft.MaxRowNNZ != 3 {
		t.Errorf("max row nnz = %d, want 3", ft.MaxRowNNZ)
	}
}

func TestExtractSkewFeatures(t *testing.T) {
	c := matgen.SkewedRows(rand.New(rand.NewSource(11)), 400, 4, 7, 0.4, matgen.Values{})
	ft := Extract(c)
	if ft.RowSkew <= 4 {
		t.Errorf("skewed generator should trip the skew threshold, got %v", ft.RowSkew)
	}
}
