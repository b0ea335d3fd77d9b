package csrdu

import (
	"fmt"
	"testing"

	"spmv/internal/testmat"
)

func TestKernelsBitwiseOnCorpus(t *testing.T) {
	for _, opts := range []Options{{}, {RLE: true}, {MinSwitch: 1}, {RLE: true, RLEMin: 3, MinSwitch: 2}} {
		for _, tc := range testmat.Corpus() {
			t.Run(fmt.Sprintf("%s/%+v", tc.Name, opts), func(t *testing.T) {
				m, err := FromCOOOpts(tc.COO, opts)
				if err != nil {
					t.Fatal(err)
				}
				testmat.CheckBitwise(t, m, 9, testmat.Reference(m), 1, 3, 4, 8)
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
			m, err := FromRaw(s.Ctl, values, s.Rows, s.Cols, false)
			if err != nil {
				t.Fatalf("hand-built stream rejected: %v", err)
			}
			testmat.CheckBitwise(t, m, 9, testmat.Reference(m), s.Widths...)
		})
	}
}
