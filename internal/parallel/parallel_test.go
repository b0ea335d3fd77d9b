package parallel

import (
	"math/rand"
	"runtime"
	"testing"

	"spmv/internal/core"
	"spmv/internal/csr"
	"spmv/internal/csrdu"
	"spmv/internal/matgen"
	"spmv/internal/sym"
	"spmv/internal/testmat"
)

func reference(c *core.COO, x []float64) []float64 {
	d := core.DenseFromCOO(c)
	y := make([]float64, c.Rows())
	d.SpMV(y, x)
	return y
}

func TestExecutorMatchesSerialAllFormats(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := matgen.FEMLike(rng, 400, 6, matgen.Values{Unique: 30})
	x := testmat.RandVec(rng, c.Cols())
	want := reference(c, x)

	builders := map[string]func() (core.Format, error){
		"csr":    func() (core.Format, error) { return csr.FromCOO(c) },
		"csr-du": func() (core.Format, error) { return csrdu.FromCOO(c) },
		"csr-vi": func() (core.Format, error) { return csr.FromCOOVI(c) },
	}
	for name, build := range builders {
		f, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, threads := range []int{1, 2, 4, 8} {
			e, err := NewExecutor(f, threads)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, threads, err)
			}
			y := make([]float64, c.Rows())
			e.Run(y, x)
			testmat.AssertClose(t, name, y, want, 1e-10)
			e.Close()
		}
	}
}

func TestExecutorRepeatedRuns(t *testing.T) {
	c := matgen.Stencil2D(20)
	f, _ := csr.FromCOO(c)
	e, _ := NewExecutor(f, 4)
	defer e.Close()
	x := testmat.RandVec(rand.New(rand.NewSource(2)), c.Cols())
	want := reference(c, x)
	y := make([]float64, c.Rows())
	e.RunIters(10, y, x)
	testmat.AssertClose(t, "after 10 iters", y, want, 1e-10)
}

func TestExecutorEmptyMatrix(t *testing.T) {
	c := core.NewCOO(50, 50)
	c.Finalize()
	for name, f := range map[string]core.Format{
		"csr":    mustFormat(csr.FromCOO(c)),
		"csr-du": mustFormat(csrdu.FromCOO(c)),
	} {
		e, err := NewExecutor(f, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		y := make([]float64, 50)
		for i := range y {
			y[i] = 7
		}
		e.Run(y, make([]float64, 50))
		for i, v := range y {
			if v != 0 {
				t.Fatalf("%s: y[%d] = %v, want 0", name, i, v)
			}
		}
		e.Close()
	}
}

func mustFormat(f core.Format, err error) core.Format {
	if err != nil {
		panic(err)
	}
	return f
}

func TestExecutorRejectsBadArgs(t *testing.T) {
	c := matgen.Stencil2D(4)
	f, _ := csr.FromCOO(c)
	if _, err := NewExecutor(f, 0); err == nil {
		t.Error("accepted 0 threads")
	}
	sf, _ := sym.FromCOO(c, 1e-12)
	if _, err := NewExecutor(sf, 2); err == nil {
		t.Error("accepted non-Splitter format")
	}
}

func TestExecutorThreadsCappedByRows(t *testing.T) {
	c := core.NewCOO(3, 3)
	c.Add(0, 0, 1)
	c.Add(1, 1, 1)
	c.Add(2, 2, 1)
	c.Finalize()
	f, _ := csr.FromCOO(c)
	e, _ := NewExecutor(f, 16)
	defer e.Close()
	if e.Threads() > 3 {
		t.Errorf("Threads = %d for a 3-row matrix", e.Threads())
	}
}

func TestExecutorCloseIdempotent(t *testing.T) {
	f, _ := csr.FromCOO(matgen.Stencil2D(4))
	e, _ := NewExecutor(f, 2)
	e.Close()
	e.Close() // must not panic
}

func TestSymExecutorRejectsRowOnlyFormat(t *testing.T) {
	f, _ := csr.FromCOO(matgen.Stencil2D(4))
	if _, err := NewSymExecutor(f, 2); err == nil {
		t.Error("accepted a format without scatter chunks")
	}
}

func TestExecutorConcurrencyIsReal(t *testing.T) {
	// Smoke test that chunks actually run on multiple goroutines: with
	// GOMAXPROCS>1 and a big matrix, parallel should not be slower than
	// ~3x serial (catching accidental serialization would need timing;
	// here we just verify correctness under -race with many runs).
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("single CPU")
	}
	c := matgen.Stencil2D(64)
	f, _ := csr.FromCOO(c)
	e, _ := NewExecutor(f, 8)
	defer e.Close()
	x := testmat.RandVec(rand.New(rand.NewSource(5)), c.Cols())
	want := reference(c, x)
	y := make([]float64, c.Rows())
	for k := 0; k < 50; k++ {
		e.Run(y, x)
	}
	testmat.AssertClose(t, "repeated parallel", y, want, 1e-10)
}
