package matfile

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"testing"

	"spmv/internal/core"
	"spmv/internal/csrdu"
	"spmv/internal/csrvi"
	"spmv/internal/matgen"
	"spmv/internal/mmio"
	"spmv/internal/testmat"
)

// encodedDigests pins the encoders' output: for every matrix, the
// SHA-256 of its csr-vi Unique/VI*, csr-du Ctl/Values (serial, with the
// parallel encoder's Ctl checked equal), csr-du-rle Ctl, csr-du-vi
// Unique/VI*, the matfile bytes of all four, and its Matrix Market
// text. The digests were taken from the map-based value table, the
// per-row CSR-DU encoder and the fmt-based Matrix Market writer; an
// encoder rewrite must reproduce every byte. long-rows-255plus was
// re-taken when COO.Finalize began folding duplicates in insertion
// order: six of its values, each the sum of a 3-way duplicate, moved
// by one ulp. diag, stencil5, stencil9, bench-stencil3d,
// bench-stencil2d and banded-unique1000 were re-taken when the encoder
// began writing REP units: they are the matrices here with rows that
// repeat the row above, shifted one column; every other digest held.
var encodedDigests = map[string]string{
	"empty":             "593377f7eb84be7bd30d5cd99da413ea62cb6aa48bcefaa878cbbb0b00676328",
	"single":            "b86ad62a2ee44258047db173b9aad877655a60028c718bd197dc63ec2c84a547",
	"diag":              "67298c8a94824b261552fd5b84f0e77c614e38f8b9ddddd3a2cca9795afc44fc",
	"dense-row":         "84296715c68e10f17f3dc9a7e0d016d62bf8c8fe9f9c6b9597f8f1bd2046c58b",
	"empty-rows-mixed":  "724a16efcc2459404bfb8278b00b9ef730fcd6b77963624d811b390c012cec6a",
	"first-last-col":    "ea33261371709a99129ee72bf4b93e62009606075c70f600c81ab22f47ce5ba0",
	"one-row":           "082b7d4800a0d260982448e96111681205d8f0f7f9458a369904954e161e120a",
	"one-col":           "ebbeb7ba837e58e2682f4bad423f58b1e301768d2d369671ff00f623f2f5a290",
	"stencil5":          "a3f5785581400b91e4801b3607ec1fe0abd3b0155161c534838baad57124850e",
	"stencil9":          "8c6d6c41498dced76fa8f2bcab763576fb0573521a77a0f87f2f04ef97b743e9",
	"banded":            "3605b79f3931fa1aaaae51823414d551998d024616163b29ade0d637d59579ca",
	"banded-unique8":    "f97d78f0ee55e83ccb42217dea834a45bcea9dfd41596012f41891d362dfb365",
	"random":            "e13ba0fad35494d4c67720e7720891a27fc251e823bdbf9d51175de366213a87",
	"random-wide":       "97620b41198356e87b4a4cae7f979d873ff5f2946b88b976fb3cdf0e368a59ed",
	"powerlaw":          "16ad016f4b06a16cc92aa89725d5902e1215226dea57b4acef61014d32881128",
	"blockdiag":         "e9b33e89c9aad4add7cd47db3238b28a8c4a84cb100c02a1734edc6f2397d65a",
	"femlike":           "2be1e663244708cda51d81d878b4c6456a85216ae16918538204c348cb19acb3",
	"long-rows-255plus": "d54e9ccee7259039d008b36a8187e173c484354da0afdce5a99feae341e738a0",
	"bench-scatter":     "97594c1a4c55f954f00f804f34c56d4ec01fa968888798b5928ed773301324dc",
	"bench-stencil3d":   "1704889c4efe63af5830825344702750e3ec8260d2a98ae9e559772220813f2a",
	"bench-stencil2d":   "19ab4420bb9b22d4e44fa17c6815a20a0a77f731906fa223639f1114dd95b57b",
	"banded-unique1000": "8597e2ac2109d7a5452d08d3ca84fe239085ee78c909ab32e9398373f72973c7",
}

// identityCases is the format test corpus plus scaled-down instances of
// the benchmark's two generators and a matrix whose val_ind is 16 bits.
func identityCases() []testmat.Case {
	cases := testmat.Corpus()
	rng := rand.New(rand.NewSource(1))
	return append(cases,
		testmat.Case{Name: "bench-scatter", COO: matgen.SkewedRows(rng, 20000, 8, 0, 0.2, matgen.Values{})},
		testmat.Case{Name: "bench-stencil3d", COO: matgen.Stencil3D(20)},
		testmat.Case{Name: "bench-stencil2d", COO: matgen.Stencil2D(64)},
		testmat.Case{Name: "banded-unique1000", COO: matgen.Banded(rng, 3000, 9, 8, matgen.Values{Unique: 1000})},
	)
}

func TestEncodedBytesUnchanged(t *testing.T) {
	for _, tc := range identityCases() {
		got := encodedDigest(t, tc.COO)
		if want := encodedDigests[tc.Name]; got != want {
			t.Errorf("%s: encoded digest %s, want %s", tc.Name, got, want)
		}
	}
}

func encodedDigest(t *testing.T, c *core.COO) string {
	t.Helper()
	h := sha256.New()
	put := func(v any) {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	vi, err := csrvi.FromCOO(c.Clone())
	if err != nil {
		t.Fatal(err)
	}
	put(vi.Unique)
	putVI(put, vi.VI8, vi.VI16, vi.VI32)

	du, err := csrdu.FromCOO(c.Clone())
	if err != nil {
		t.Fatal(err)
	}
	put(du.Ctl)
	put(du.Values)
	par, err := csrdu.FromCOOOpts(c.Clone(), csrdu.Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(par.Ctl, du.Ctl) {
		t.Errorf("parallel encoder's ctl differs from the serial encoder's")
	}
	rle, err := csrdu.FromCOOOpts(c.Clone(), csrdu.Options{RLE: true})
	if err != nil {
		t.Fatal(err)
	}
	put(rle.Ctl)

	duvi, err := csrdu.FromCOOVI(c.Clone(), csrdu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	put(duvi.Unique)
	putVI(put, duvi.VI8, duvi.VI16, duvi.VI32)

	for _, f := range []core.Format{vi, du, rle, duvi} {
		if err := Write(h, f); err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
	}
	fin := c.Clone()
	fin.Finalize()
	if err := mmio.Write(h, fin); err != nil {
		t.Fatal(err)
	}
	return digest(h)
}

// putVI writes the val_ind width and stream.
func putVI(put func(any), vi8 []uint8, vi16 []uint16, vi32 []uint32) {
	switch {
	case vi8 != nil:
		put(uint8(1))
		put(vi8)
	case vi16 != nil:
		put(uint8(2))
		put(vi16)
	default:
		put(uint8(4))
		put(vi32)
	}
}

func digest(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }
