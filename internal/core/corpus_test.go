package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"spmv/internal/core"
	"spmv/internal/testmat"
)

// reorderDigests pins Transpose and AddCOO on the testmat corpus: the
// SHA-256 of the transpose, then of A + Aᵀ (A + A when A is not
// square). Both put triplets back in row order: Transpose by a counting
// sort over columns, or through Finalize when it has more columns than
// entries (empty, single, one-row, random-wide), and AddCOO through
// Finalize's reorder by row. The digests were taken when both added
// triplet by triplet into a COO that Finalize sorted by comparison;
// neither result holds a coordinate added more than twice, so the fold
// order cannot change a bit. Only long-rows-255plus was re-taken: the
// corpus matrix itself folds 3-way duplicates in insertion order now,
// and from the old matrix the new Transpose and AddCOO reproduce the
// old digest.
var reorderDigests = map[string]string{
	"empty":             "cea1b3ac8db833b22b0c78a8f5c39f0f15204b912ce14ea1aba3c11002d942d0",
	"single":            "5bd07175759174281a8e3b27b1c32a728fe5757c9a26ce0f29bc40793c72dfcb",
	"diag":              "5327d5f18a77fe3f216f77af75715a6cbbb72875c5c765298c1c6233117d1541",
	"dense-row":         "234eb1125c546dd35da119d3915c46cc7cea5f52dc573a243a0ad6c0025d25c1",
	"empty-rows-mixed":  "9fca56cf39cecd3ab2f2b80570c91bc13273872258ed27c8d85dfda16fd9c71b",
	"first-last-col":    "3c172c90904c8b12916ef2c5c39e119c6594638b1c940e4acb5f97e87d69c4c4",
	"one-row":           "9dcea18b563f36d52d0a9eb6c140c3bcfe0854c68c1408d3d32d69065690d6d3",
	"one-col":           "062e98ffbff66217cf286f90d66b697e2b369c6831cb24aec1eba4e6698bf8ec",
	"stencil5":          "80d1cb8489397334fc223943417333288d109a249c2812513471771b8af45d5b",
	"stencil9":          "9b97a103864a2385ee2e2fd4b0d30b4a55b12e130b1ec3f95169c41cd6d35186",
	"banded":            "79936a7c172ad9bdc6b8c6433a1e60ececed135883195c42a2eba73243665e8c",
	"banded-unique8":    "2b426a72d522ae773f696aca89af7469780313d1dec458da7a092db76027c27d",
	"random":            "14923a97d97a32080ff7384efc091812448c0fa437acb626ea410dfb90142492",
	"random-wide":       "21ac6bd5187fa49766e617607644afc2af94abb374255aa2d74836601d681f63",
	"powerlaw":          "67199701f38e67ac731bae50282e0535cd1446799721bd44abc334ba86b80fa7",
	"blockdiag":         "cc23f6d8a46081080e88a44b30b0f45e003c5cf67c8732470459a1c49a5e1090",
	"femlike":           "b3cdd4577ced4724d67b0bdbbcb3f6aca01ec32b88f1265f9cf153e18100e69d",
	"long-rows-255plus": "2893072c9c010b7534935b0dfba764476e9db8d16adcd3518d509c647180ea39",
}

func TestTransposeAndAddCOOUnchanged(t *testing.T) {
	for _, tc := range testmat.Corpus() {
		a := tc.COO
		b := a
		if a.Rows() == a.Cols() {
			b = a.Transpose()
		}
		h := sha256.New()
		for _, c := range []*core.COO{a.Transpose(), a.AddCOO(b)} {
			for _, v := range []any{int64(c.Rows()), int64(c.Cols()), c.I, c.J, c.V} {
				if err := binary.Write(h, binary.LittleEndian, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != reorderDigests[tc.Name] {
			t.Errorf("%q: %q,", tc.Name, got)
		}
	}
}
