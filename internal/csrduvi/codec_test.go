package csrduvi_test

import (
	"fmt"
	"math/rand"
	"testing"

	"spmv/internal/core"
	"spmv/internal/csr"
	"spmv/internal/csrdu"
	"spmv/internal/csrvi"
	"spmv/internal/matgen"
	"spmv/internal/testmat"
)

// TestCodecNeverCostsMoreBytes: the value codec is a byte decision, so
// indexing values never makes a matrix larger than the format that
// stores them plainly — csr-vi against csr, csr-du-vi against csr-du —
// and where the encoder keeps the plain codec the sizes are equal.
func TestCodecNeverCostsMoreBytes(t *testing.T) {
	cases := append(testmat.EncoderCases(),
		testmat.Case{Name: "skewed-rows-200k", COO: matgen.SkewedRows(rand.New(rand.NewSource(40)), 200000, 8, 0, 0.2, matgen.Values{})},
		testmat.Case{Name: "stencil3d-40", COO: matgen.Stencil3D(40)},
	)
	for _, tc := range cases {
		ref, err := csr.FromCOO(tc.COO.Clone())
		if err != nil {
			t.Fatal(err)
		}
		vi, err := csr.FromCOOVI(tc.COO.Clone())
		if err != nil {
			t.Fatal(err)
		}
		du, err := csrdu.FromCOO(tc.COO.Clone())
		if err != nil {
			t.Fatal(err)
		}
		duvi, err := fromCOO(tc.COO.Clone())
		if err != nil {
			t.Fatal(err)
		}
		check := func(indexed, plain core.Format, width int) {
			t.Helper()
			if width == 0 && indexed.SizeBytes() != plain.SizeBytes() ||
				indexed.SizeBytes() > plain.SizeBytes() {
				t.Errorf("%s: %s is %d bytes at val_ind width %d, %s %d",
					tc.Name, indexed.Name(), indexed.SizeBytes(), width, plain.Name(), plain.SizeBytes())
			}
		}
		check(vi, ref, vi.IndexWidth())
		check(duvi, du, duvi.IndexWidth())
		if vi.IndexWidth() != duvi.IndexWidth() {
			t.Errorf("%s: csr-vi width %d, csr-du-vi width %d: one rule, one answer",
				tc.Name, vi.IndexWidth(), duvi.IndexWidth())
		}
	}
}

// cycled returns a matrix of nnz entries, 1000 columns a row filled
// left to right, whose values cycle through unique distinct values.
func cycled(nnz, unique int) *core.COO {
	c := core.NewCOO((nnz+999)/1000, 1000)
	for k := 0; k < nnz; k++ {
		c.Add(k/1000, k%1000, float64(k%unique)+0.5)
	}
	c.Finalize()
	return c
}

// TestCodecAtBreakEven builds matrices one distinct value either side of
// the break-even width*nnz + 8*unique = 8*nnz at each val_ind width,
// and the 1-nnz matrix: each must get the cheaper codec, and at
// break-even, where the bytes tie, the plain one, which spares the
// indirection.
func TestCodecAtBreakEven(t *testing.T) {
	for _, tc := range []struct {
		nnz, unique, width int
	}{
		{288, 251, 1}, {288, 252, 0}, // 288 + 8*252 = 8*288
		{4000, 2999, 2}, {4000, 3000, 0}, // 2*4000 + 8*3000 = 8*4000
		{140000, 69999, 4}, {140000, 70000, 0}, // 4*140000 + 8*70000 = 8*140000
		{1, 1, 0},
	} {
		t.Run(fmt.Sprintf("nnz%d-unique%d", tc.nnz, tc.unique), func(t *testing.T) {
			c := cycled(tc.nnz, tc.unique)
			if got := csrvi.Pays(tc.unique, tc.nnz); got != (tc.width != 0) {
				t.Fatalf("Pays = %v", got)
			}
			vi, err := csr.FromCOOVI(c.Clone())
			if err != nil {
				t.Fatal(err)
			}
			duvi, err := fromCOO(c.Clone())
			if err != nil {
				t.Fatal(err)
			}
			// Under the plain codec csr-vi stores every value, csr-du-vi
			// is csr-du and stores no table.
			wantName, wantStored, wantUnique := "csr-du", tc.nnz, 0
			if tc.width != 0 {
				wantName, wantStored, wantUnique = "csr-du-vi", tc.unique, tc.unique
			}
			if vi.IndexWidth() != tc.width || len(vi.Unique) != wantStored {
				t.Errorf("csr-vi: width %d with %d stored values, want width %d with %d",
					vi.IndexWidth(), len(vi.Unique), tc.width, wantStored)
			}
			if duvi.IndexWidth() != tc.width || duvi.Name() != wantName || len(duvi.Unique) != wantUnique {
				t.Errorf("csr-du-vi: %s at width %d with %d unique, want %s at width %d with %d",
					duvi.Name(), duvi.IndexWidth(), len(duvi.Unique), wantName, tc.width, wantUnique)
			}
			if tc.width == 0 && len(duvi.Values) != tc.nnz {
				t.Errorf("csr-du-vi under the plain codec keeps %d of %d values", len(duvi.Values), tc.nnz)
			}
		})
	}
}
