package csrdu

import (
	"fmt"
	"testing"

	"spmv/internal/testmat"
)

// reference multiplies by accumulating ForEach's (i, j, v) stream left
// to right into a zeroed panel: the summation order the kernels keep.
func reference(m *Matrix) func(x []float64, k int) []float64 {
	return func(x []float64, k int) []float64 {
		want := make([]float64, m.rows*k)
		m.ForEach(func(i, j int, v float64) {
			for c := 0; c < k; c++ {
				want[i*k+c] += v * x[j*k+c]
			}
		})
		return want
	}
}

func TestKernelsBitwiseOnCorpus(t *testing.T) {
	for _, opts := range []Options{{}, {RLE: true}, {MinSwitch: 1}, {RLE: true, RLEMin: 3, MinSwitch: 2}} {
		for _, tc := range testmat.Corpus() {
			t.Run(fmt.Sprintf("%s/%+v", tc.Name, opts), func(t *testing.T) {
				m, err := FromCOOOpts(tc.COO, opts)
				if err != nil {
					t.Fatal(err)
				}
				testmat.CheckBitwise(t, m, 9, reference(m), 1, 3, 4, 8)
			})
		}
	}
}

func TestKernelsBitwiseOnHandBuiltStreams(t *testing.T) {
	for _, s := range testmat.DUStreams() {
		t.Run(s.Name, func(t *testing.T) {
			values := make([]float64, s.NNZ)
			for i := range values {
				values[i] = 0.25 + float64(i%97)/7
			}
			m, err := FromRaw(s.Ctl, values, s.Rows, s.Cols)
			if err != nil {
				t.Fatalf("hand-built stream rejected: %v", err)
			}
			testmat.CheckBitwise(t, m, 9, reference(m), s.Widths...)
		})
	}
}
