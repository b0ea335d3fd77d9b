package csr

import (
	"math"
	"math/rand"
	"testing"

	"spmv/internal/core"
	"spmv/internal/matgen"
	"spmv/internal/testmat"
)

func TestCSR32Conformance(t *testing.T) {
	// The conformance battery's tolerance (1e-10 relative) is too tight
	// for float32 coefficients, so run a float32-friendly version of the
	// checks over the corpus: compare against a dense reference computed
	// from the *rounded* values.
	for _, tc := range testmat.Corpus() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			m, err := From32(tc.COO)
			if err != nil {
				t.Fatal(err)
			}
			// Reference with identically rounded values.
			rounded := core.NewCOO(tc.COO.Rows(), tc.COO.Cols())
			for k := 0; k < tc.COO.Len(); k++ {
				i, j, v := tc.COO.At(k)
				rounded.Add(i, j, float64(float32(v)))
			}
			rounded.Finalize()
			d := core.DenseFromCOO(rounded)
			rng := rand.New(rand.NewSource(4))
			x := testmat.RandVec(rng, tc.COO.Cols())
			want := make([]float64, tc.COO.Rows())
			got := make([]float64, tc.COO.Rows())
			d.SpMV(want, x)
			m.SpMV(got, x)
			testmat.AssertClose(t, "csr32", got, want, 1e-10)

			// Chunked equals serial.
			got2 := make([]float64, tc.COO.Rows())
			for i := range got2 {
				got2[i] = math.NaN()
			}
			covered := make([]bool, tc.COO.Rows())
			for _, ch := range m.Split(3) {
				ch.SpMV(got2, x)
				lo, hi := ch.RowRange()
				for i := lo; i < hi; i++ {
					covered[i] = true
				}
			}
			for i := range got2 {
				if !covered[i] {
					got2[i] = 0
				}
			}
			testmat.AssertClose(t, "csr32 chunks", got2, want, 1e-10)
		})
	}
}

func TestCSR32HalvesValueBytes(t *testing.T) {
	c := matgen.Stencil2D(30)
	m64, _ := FromCOO(c)
	m32, err := From32(c)
	if err != nil {
		t.Fatal(err)
	}
	if diff := m64.SizeBytes() - m32.SizeBytes(); diff != int64(4*m64.NNZ()) {
		t.Errorf("size delta = %d, want %d", diff, 4*m64.NNZ())
	}
	if m32.Name() != "csr32" {
		t.Errorf("Name = %q", m32.Name())
	}
}

func TestCSR32RoundsValues(t *testing.T) {
	c := core.NewCOO(1, 1)
	c.Add(0, 0, 1+1e-12) // not representable in float32
	c.Finalize()
	m, _ := From32(c)
	if m.Values32[0] != 1.0 {
		t.Errorf("value = %v, want rounded to 1", m.Values32[0])
	}
}
