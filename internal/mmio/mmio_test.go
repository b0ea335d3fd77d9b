package mmio

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"spmv/internal/core"
	"spmv/internal/matgen"
)

func TestReadGeneral(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
% a comment
3 4 3
1 1 1.5
2 3 -2.0
3 4 4e2
`
	c, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if c.Rows() != 3 || c.Cols() != 4 || c.Len() != 3 {
		t.Fatalf("shape %dx%d nnz %d", c.Rows(), c.Cols(), c.Len())
	}
	i, j, v := c.At(2)
	if i != 2 || j != 3 || v != 400 {
		t.Errorf("last entry = (%d,%d,%v)", i, j, v)
	}
}

func TestReadSymmetricExpands(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
3 3 3
1 1 2.0
2 1 -1.0
3 2 5.0
`
	c, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 5 {
		t.Fatalf("nnz = %d, want 5 (2 off-diag mirrored)", c.Len())
	}
	d := core.DenseFromCOO(c)
	if d.At(0, 1) != -1 || d.At(1, 0) != -1 {
		t.Error("mirror missing")
	}
	if d.At(1, 2) != 5 || d.At(2, 1) != 5 {
		t.Error("mirror missing for (3,2)")
	}
}

func TestReadSkewSymmetric(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real skew-symmetric
2 2 1
2 1 3.0
`
	c, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	d := core.DenseFromCOO(c)
	if d.At(1, 0) != 3 || d.At(0, 1) != -3 {
		t.Errorf("skew expand wrong: %v %v", d.At(1, 0), d.At(0, 1))
	}
}

func TestReadPattern(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern general
2 2 2
1 2
2 1
`
	c, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	_, _, v := c.At(0)
	if v != 1 {
		t.Errorf("pattern value = %v, want 1", v)
	}
}

func TestReadInteger(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate integer general
2 2 1
1 1 42
`
	c, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	_, _, v := c.At(0)
	if v != 42 {
		t.Errorf("value = %v", v)
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"empty":         "",
		"bad banner":    "%%NotMatrixMarket matrix coordinate real general\n1 1 1\n1 1 1\n",
		"array format":  "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n",
		"bad field":     "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
		"bad symmetry":  "%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1\n",
		"bad size":      "%%MatrixMarket matrix coordinate real general\n0 3 1\n1 1 1\n",
		"short entry":   "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",
		"oob coord":     "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 5\n",
		"missing entry": "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 5\n",
		"bad value":     "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 xyz\n",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	orig := matgen.FEMLike(rng, 60, 4, matgen.Values{Unique: 7})
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Rows() != orig.Rows() || back.Cols() != orig.Cols() || back.Len() != orig.Len() {
		t.Fatalf("shape mismatch after round trip")
	}
	for k := 0; k < orig.Len(); k++ {
		i1, j1, v1 := orig.At(k)
		i2, j2, v2 := back.At(k)
		if i1 != i2 || j1 != j2 || v1 != v2 {
			t.Fatalf("entry %d: (%d,%d,%v) vs (%d,%d,%v)", k, i1, j1, v1, i2, j2, v2)
		}
	}
}

func TestDuplicatesSummed(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
2 2 2
1 1 1.5
1 1 2.5
`
	c, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatalf("nnz = %d after fold", c.Len())
	}
	_, _, v := c.At(0)
	if v != 4 {
		t.Errorf("folded value = %v", v)
	}
}

func TestCaseInsensitiveBanner(t *testing.T) {
	in := "%%MatrixMarket MATRIX Coordinate REAL General\n1 1 1\n1 1 9\n"
	c, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	_, _, v := c.At(0)
	if v != 9 {
		t.Errorf("value = %v", v)
	}
}

func TestReadStreamMatchesRead(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
3 3 3
1 1 2.0
2 1 -1.0
3 2 5.0
`
	var sized *Size
	var got [][3]float64
	size, err := ReadStream(strings.NewReader(in),
		func(s Size) { sized = &s },
		func(i, j int, v float64) { got = append(got, [3]float64{float64(i), float64(j), v}) })
	if err != nil {
		t.Fatal(err)
	}
	if sized == nil || sized.Rows != 3 || sized.NNZ != 3 {
		t.Fatalf("onSize: %+v", sized)
	}
	if size.Header.Symmetry != "symmetric" {
		t.Errorf("header: %+v", size.Header)
	}
	// 3 file entries, 2 mirrored => 5 emits.
	if len(got) != 5 {
		t.Fatalf("emits = %d, want 5", len(got))
	}
}

func TestReadCRLFLineEndings(t *testing.T) {
	// Files written on Windows (or fetched in text mode) arrive with
	// \r\n terminators; the reader must not choke on the trailing \r.
	in := "%%MatrixMarket matrix coordinate real general\r\n" +
		"% comment\r\n" +
		"2 2 2\r\n" +
		"1 1 1.5\r\n" +
		"2 2 -3.0\r\n"
	c, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("nnz = %d, want 2", c.Len())
	}
	_, _, v := c.At(1)
	if v != -3 {
		t.Errorf("value = %v, want -3", v)
	}
}

func TestReadRejectsNonFinite(t *testing.T) {
	for _, bad := range []string{"NaN", "nan", "Inf", "+Inf", "-Inf", "infinity"} {
		in := "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 " + bad + "\n"
		_, err := Read(strings.NewReader(in))
		if err == nil {
			t.Errorf("value %q accepted", bad)
			continue
		}
		if !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("value %q: error %v does not mention non-finite", bad, err)
		}
	}
}

func TestReadLongCommentLine(t *testing.T) {
	// A 2 MiB comment line exceeds the old 1 MiB scanner cap; the raised
	// limit must carry it.
	in := "%%MatrixMarket matrix coordinate real general\n" +
		"%" + strings.Repeat("x", 2<<20) + "\n" +
		"1 1 1\n1 1 7\n"
	c, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	_, _, v := c.At(0)
	if v != 7 {
		t.Errorf("value = %v, want 7", v)
	}
}

func TestReadStreamNilOnSize(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 3\n"
	n := 0
	if _, err := ReadStream(strings.NewReader(in), nil, func(i, j int, v float64) { n++ }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("emits = %d", n)
	}
}

// Regression tests for symmetric expansion at the diagonal: the
// expansion mirrors strictly off-diagonal entries only. Mirroring a
// diagonal entry would fold into a doubled value (symmetric) or a
// cancelled zero (skew-symmetric) after Finalize — both silent data
// corruption, invisible to shape checks.

func TestSymmetricDiagonalNotDuplicated(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
3 3 4
1 1 2.0
2 2 7.0
3 1 -1.0
3 3 4.0
`
	c, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	// 3 diagonal entries stored once each + 1 off-diagonal mirrored.
	if c.Len() != 5 {
		t.Fatalf("nnz = %d, want 5", c.Len())
	}
	d := core.DenseFromCOO(c)
	for k, want := range map[int]float64{0: 2, 1: 7, 2: 4} {
		if got := d.At(k, k); got != want {
			t.Errorf("diag[%d] = %v, want %v (duplicated diagonal folds to 2x)", k, got, want)
		}
	}
	if d.At(0, 2) != -1 || d.At(2, 0) != -1 {
		t.Error("off-diagonal mirror missing")
	}
}

func TestSkewSymmetricDiagonalNotMirrored(t *testing.T) {
	// Skew-symmetric files should not store the (identically zero)
	// diagonal, but a reader must not make things worse when one does:
	// mirroring (i,i,v) as (i,i,-v) would cancel the entry entirely.
	in := `%%MatrixMarket matrix coordinate real skew-symmetric
2 2 2
1 1 2.0
2 1 3.0
`
	c, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	d := core.DenseFromCOO(c)
	if got := d.At(0, 0); got != 2 {
		t.Errorf("diag = %v, want 2 (a mirrored diagonal cancels to 0)", got)
	}
	if d.At(1, 0) != 3 || d.At(0, 1) != -3 {
		t.Errorf("skew mirror wrong: (1,0)=%v (0,1)=%v", d.At(1, 0), d.At(0, 1))
	}
}

func TestSymmetricExpansionDuplicateFold(t *testing.T) {
	// Duplicate stored entries pass through the expansion and are summed
	// by Finalize — on both sides of the mirror.
	in := `%%MatrixMarket matrix coordinate real symmetric
3 3 3
2 1 1.25
2 1 0.75
3 3 5.0
`
	c, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	// (2,1)+(2,1) fold to one entry, its mirror likewise, plus the diagonal.
	if c.Len() != 3 {
		t.Fatalf("nnz = %d after fold, want 3", c.Len())
	}
	d := core.DenseFromCOO(c)
	if d.At(1, 0) != 2 || d.At(0, 1) != 2 {
		t.Errorf("folded mirror pair = %v/%v, want 2/2", d.At(1, 0), d.At(0, 1))
	}
	if d.At(2, 2) != 5 {
		t.Errorf("diagonal = %v, want 5", d.At(2, 2))
	}
}

// TestReadColumnMajorEqualsRowMajor: the same entries listed column by
// column, as column-oriented writers emit them, read to the COO the
// row-major listing gives.
func TestReadColumnMajorEqualsRowMajor(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := matgen.RandomUniform(rng, 300, 200, 9, matgen.Values{})
	var rowMajor, colMajor bytes.Buffer
	if err := Write(&rowMajor, c); err != nil {
		t.Fatal(err)
	}
	// The transpose's rows are c's columns, in order.
	ct := c.Transpose()
	fmt.Fprintf(&colMajor, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n", c.Rows(), c.Cols(), c.Len())
	for k := range ct.V {
		fmt.Fprintf(&colMajor, "%d %d %.17g\n", ct.J[k]+1, ct.I[k]+1, ct.V[k])
	}
	a, err := Read(&rowMajor)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Read(&colMajor)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(c) || !b.Equal(a) {
		t.Error("column-major file reads to a different COO than the row-major file")
	}
}

// TestReadMemoryIgnoresDimensions: a 90-byte file may declare
// 2^31-1 rows and columns. Read must cost what its bytes cost: the
// scanner's 64 KiB line buffer plus less than 64 KiB, never memory
// that grows with the declared rows.
func TestReadMemoryIgnoresDimensions(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real general\n2147483647 2147483647 3\n2147483647 1 1\n1 2147483647 2\n5 5 3\n"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := Read(strings.NewReader(in))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 128<<10 {
		t.Errorf("Read allocated %d bytes, want < 128 KiB", d)
	}
	if i, _, _ := c.At(0); i != 0 || c.Len() != 3 {
		t.Errorf("not sorted: first row %d, %d entries", i, c.Len())
	}
}
