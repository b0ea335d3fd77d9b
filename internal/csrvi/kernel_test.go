package csrvi

import (
	"math/rand"
	"testing"

	"spmv/internal/matgen"
	"spmv/internal/testmat"
)

// The row walk sums each row left to right from +0 and writes only its
// chunk's rows, at every val_ind width: SpMV, SpMVBatch and every chunk
// of Split(1..9) must equal the ForEach-order accumulation bit for bit.
func TestKernelsBitwiseOnCorpus(t *testing.T) {
	cases := testmat.Corpus()
	// More than 2^16 distinct values: the 4-byte val_ind walk.
	cases = append(cases, testmat.Case{Name: "random-vi32",
		COO: matgen.RandomUniform(rand.New(rand.NewSource(5)), 300, 400, 230, matgen.Values{})})
	widths := map[int]bool{}
	for _, tc := range cases {
		t.Run(tc.Name, func(t *testing.T) {
			m, err := FromCOO(tc.COO)
			if err != nil {
				t.Fatal(err)
			}
			widths[m.IndexWidth()] = true
			testmat.CheckBitwise(t, m, 9, testmat.Reference(m), 1, 3, 4, 8)
		})
	}
	for _, w := range []int{1, 2, 4} {
		if !widths[w] {
			t.Errorf("no case has a %d-byte val_ind", w)
		}
	}
}
