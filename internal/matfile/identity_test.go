package matfile

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"spmv/internal/core"
	"spmv/internal/csr"
	"spmv/internal/csrdu"
	"spmv/internal/csrvi"
	"spmv/internal/mmio"
	"spmv/internal/testmat"
)

// encodedDigests pins the encoders' output: for every matrix, the
// SHA-256 of its csr-vi Unique/VI*, csr-du Ctl/Values, csr-du-rle Ctl,
// csr-du-vi Unique/VI*, the matfile bytes of all four, and its Matrix
// Market text. The digests were taken from the map-based value table, the
// per-row CSR-DU encoder and the fmt-based Matrix Market writer; an
// encoder rewrite must reproduce every byte. long-rows-255plus was
// re-taken when COO.Finalize began folding duplicates in insertion
// order: six of its values, each the sum of a 3-way duplicate, moved
// by one ulp. diag, stencil5, stencil9, bench-stencil3d,
// bench-stencil2d and banded-unique1000 were re-taken when the encoder
// began writing REP units: they are the matrices here with rows that
// repeat the row above, shifted one column; every other digest held.
// The plainCodec matrices were re-taken when the value dictionary began
// to be built only where it pays.
var encodedDigests = map[string]string{
	"empty":             "8038d15923b3137a2219578311de57e54861c15a6b1ce2cade37f99486fdd916",
	"single":            "be5d34efaae62c09dbdf493bd2c85a8d02f912b45bd2c856375b5bf935d1a769",
	"diag":              "737923912f7fc3545b42df9f0657f57f2ab8a137b77ecbc3f7d5b237cccc6e7b",
	"dense-row":         "6fdc974c33986f416047af20f746edbff59a358f84cb75f9a5cb521a6d9228a6",
	"empty-rows-mixed":  "d1142e86893ac8c243ef64f84db7cab44f68b65c95fe3aba034b386b3c85d3a0",
	"first-last-col":    "ea33261371709a99129ee72bf4b93e62009606075c70f600c81ab22f47ce5ba0",
	"one-row":           "a8edca3dc774dda5d701ab8e25d940c4e03516e7a5f3f3b69c705007d91d8ed5",
	"one-col":           "ab7b4318aeebe2b964212224fb2ce5bc6492fcb721f45b6e467c53b921506b84",
	"stencil5":          "a3f5785581400b91e4801b3607ec1fe0abd3b0155161c534838baad57124850e",
	"stencil9":          "8c6d6c41498dced76fa8f2bcab763576fb0573521a77a0f87f2f04ef97b743e9",
	"banded":            "273573253f503b7ae320e6050c0fbdd11c90ac610efb20dd44707728bfc7c173",
	"banded-unique8":    "f97d78f0ee55e83ccb42217dea834a45bcea9dfd41596012f41891d362dfb365",
	"random":            "f0f80242ddf787d7f828f6bd5c67fdb9afd849b2be17b88f5212434ab5c1b4eb",
	"random-wide":       "8e5b4b7f3c1d518c886afc53545b8a83e22f8b2da0b0a6894b02edff8de0cf95",
	"powerlaw":          "a5771d1b3f70949c5da5524c14207734af5ee41a6292e129a1917701e7e2c50a",
	"blockdiag":         "e9b33e89c9aad4add7cd47db3238b28a8c4a84cb100c02a1734edc6f2397d65a",
	"femlike":           "2be1e663244708cda51d81d878b4c6456a85216ae16918538204c348cb19acb3",
	"long-rows-255plus": "2cc9b137bbc8b8729c421981f22cd58682c30c5747d3257adb592dcadf8e6c68",
	"bench-scatter":     "7fed6f916fefb155642bf4a3c34c9cae1b7e97e8a5740734458458a724958a2f",
	"bench-stencil3d":   "1704889c4efe63af5830825344702750e3ec8260d2a98ae9e559772220813f2a",
	"bench-stencil2d":   "19ab4420bb9b22d4e44fa17c6815a20a0a77f731906fa223639f1114dd95b57b",
	"banded-unique1000": "8597e2ac2109d7a5452d08d3ca84fe239085ee78c909ab32e9398373f72973c7",
}

// plainCodec names the matrices whose digests were re-taken when the
// value dictionary began to be built only where it is smaller than the
// plain value stream (csrvi.Pays): on these, and only these, csr-vi and
// csr-du-vi take the plain codec, so their value streams and matfiles
// changed. The test holds the set to the rule.
var plainCodec = map[string]bool{
	"empty": true, "single": true, "diag": true, "dense-row": true,
	"empty-rows-mixed": true, "one-row": true, "one-col": true,
	"banded": true, "random": true, "random-wide": true, "powerlaw": true,
	"long-rows-255plus": true, "bench-scatter": true,
}

func TestEncodedBytesUnchanged(t *testing.T) {
	for _, tc := range testmat.EncoderCases() {
		got := encodedDigest(t, tc.COO)
		if want := encodedDigests[tc.Name]; got != want {
			t.Errorf("%s: encoded digest %s, want %s", tc.Name, got, want)
		}
		fin := tc.COO.Clone()
		fin.Finalize()
		if _, _, _, _, ok := csrvi.IndexValues(fin.V); ok == plainCodec[tc.Name] {
			t.Errorf("%s: dictionary built %v, but the re-taken digests say %v", tc.Name, ok, !plainCodec[tc.Name])
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
	vi, err := csr.FromCOOVI(c.Clone())
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

// putVI writes the val_ind width and stream; width 0 under the plain
// codec.
func putVI(put func(any), vi8 []uint8, vi16 []uint16, vi32 []uint32) {
	switch {
	case vi8 != nil:
		put(uint8(1))
		put(vi8)
	case vi16 != nil:
		put(uint8(2))
		put(vi16)
	case vi32 != nil:
		put(uint8(4))
		put(vi32)
	default:
		put(uint8(0))
	}
}

func digest(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }
