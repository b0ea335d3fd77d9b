package csrdu

import (
	"bytes"
	"math/rand"
	"testing"

	"spmv/internal/core"
	"spmv/internal/matgen"
	"spmv/internal/testmat"
)

func TestParallelEncodeByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mats := map[string]*core.COO{
		"banded":     matgen.Banded(rng, 30000, 20, 8, matgen.Values{}),
		"powerlaw":   matgen.PowerLaw(rng, 20000, 6, 0.8, matgen.Values{}),
		"empty-rows": sparseWithGaps(rng, 20000),
		"stencil":    matgen.Stencil2D(150),
	}
	for name, c := range mats {
		for _, opts := range []Options{{}, {RLE: true}} {
			serial, err := FromCOOOpts(c, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, workers := range []int{2, 3, 8} {
				opts.Workers = workers
				par, err := FromCOOOpts(c, opts)
				if err != nil {
					t.Fatalf("%s/%d: %v", name, workers, err)
				}
				if !bytes.Equal(par.Ctl, serial.Ctl) {
					t.Fatalf("%s/%d workers (RLE=%v): ctl streams differ (%d vs %d bytes)",
						name, workers, opts.RLE, len(par.Ctl), len(serial.Ctl))
				}
				if len(par.Values) != len(serial.Values) {
					t.Fatalf("%s/%d: value counts differ", name, workers)
				}
				if len(par.marks) != len(serial.marks) {
					t.Fatalf("%s/%d: mark counts differ: %d vs %d",
						name, workers, len(par.marks), len(serial.marks))
				}
				for i := range par.marks {
					if par.marks[i] != serial.marks[i] {
						t.Fatalf("%s/%d: mark %d differs: %+v vs %+v",
							name, workers, i, par.marks[i], serial.marks[i])
					}
				}
			}
		}
	}
}

// sparseWithGaps leaves multi-row gaps so block seams land next to
// empty rows (the case that breaks naive concatenation).
func sparseWithGaps(rng *rand.Rand, n int) *core.COO {
	c := core.NewCOO(n, n)
	for i := 0; i < n; i += 3 + rng.Intn(5) {
		for k := 0; k < 1+rng.Intn(4); k++ {
			c.Add(i, rng.Intn(n), rng.NormFloat64())
		}
	}
	c.Finalize()
	return c
}

func TestParallelEncodeSpMVCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := sparseWithGaps(rng, 5000)
	m, err := FromCOOOpts(c, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	d := core.DenseFromCOO(c)
	x := testmat.RandVec(rng, c.Cols())
	want := make([]float64, c.Rows())
	got := make([]float64, c.Rows())
	d.SpMV(want, x)
	m.SpMV(got, x)
	testmat.AssertClose(t, "parallel-encoded SpMV", got, want, 1e-10)
	// Chunked decode works with the rebased marks.
	got2 := make([]float64, c.Rows())
	for _, ch := range m.Split(6) {
		ch.SpMV(got2, x)
	}
	testmat.AssertClose(t, "parallel-encoded chunks", got2, want, 1e-10)
}

func TestParallelEncodeSmallFallsBack(t *testing.T) {
	c := matgen.Stencil2D(5)
	m, err := FromCOOOpts(c, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	serial, _ := FromCOO(c)
	if !bytes.Equal(m.Ctl, serial.Ctl) {
		t.Error("small-matrix fallback differs from serial")
	}
}

func BenchmarkEncodeParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	c := matgen.Banded(rng, 200000, 40, 10, matgen.Values{})
	for _, w := range []int{1, 4} {
		w := w
		b.Run(map[int]string{1: "serial", 4: "4-workers"}[w], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := FromCOOOpts(c, Options{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
