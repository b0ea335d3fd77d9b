package csrvi

import (
	"math/rand"
	"testing"

	"spmv/internal/matgen"
	"spmv/internal/testmat"
)

// The row walk sums each row left to right from +0 and writes only its
// chunk's rows, under the plain codec and at every val_ind width: SpMV,
// SpMVBatch and every chunk of Split(1..9) must equal the ForEach-order
// accumulation bit for bit.
func TestKernelsBitwiseOnCorpus(t *testing.T) {
	cases := testmat.Corpus()
	// 3000 and 66 000 values cycled over 161 000 non-zeros: the 2- and
	// 4-byte val_ind walks.
	for name, unique := range map[string]int{"random-vi16": 3000, "random-vi32": 66000} {
		c := matgen.RandomUniform(rand.New(rand.NewSource(5)), 700, 400, 230, matgen.Values{})
		for k := range c.V {
			c.V[k] = float64(k%unique) + 0.25
		}
		cases = append(cases, testmat.Case{Name: name, COO: c})
	}
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
	for _, w := range []int{0, 1, 2, 4} {
		if !widths[w] {
			t.Errorf("no case has a %d-byte val_ind", w)
		}
	}
}
