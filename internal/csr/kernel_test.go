package csr

import (
	"testing"

	"spmv/internal/testmat"
)

// The row walk sums each row left to right from +0 and writes only its
// chunk's rows: SpMV, SpMVBatch and every chunk of Split(1..9) must
// equal the ForEach-order accumulation bit for bit, under the float64
// and the float32 value codec (csrvi's tests hold csr-vi to it).
func TestKernelsBitwiseOnCorpus(t *testing.T) {
	for _, tc := range testmat.Corpus() {
		t.Run(tc.Name, func(t *testing.T) {
			m, err := FromCOO(tc.COO)
			if err != nil {
				t.Fatal(err)
			}
			testmat.CheckBitwise(t, m, 9, testmat.Reference(m), 1, 3, 4, 8)
			m32, err := From32(tc.COO)
			if err != nil {
				t.Fatal(err)
			}
			testmat.CheckBitwise(t, m32, 9, testmat.Reference(m32), 1, 3, 4, 8)
		})
	}
}
