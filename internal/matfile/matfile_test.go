package matfile

import (
	"bytes"
	"math/rand"
	"testing"

	"spmv/internal/core"
	"spmv/internal/csr"
	"spmv/internal/csrdu"
	"spmv/internal/csrvi"
	"spmv/internal/matgen"
	"spmv/internal/testmat"
)

func roundTrip(t *testing.T, f core.Format) core.Format {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatalf("Write: %v", err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	return back
}

func checkEqual(t *testing.T, a, b core.Format, cols int) {
	t.Helper()
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() || a.NNZ() != b.NNZ() {
		t.Fatalf("shape mismatch: %dx%d/%d vs %dx%d/%d",
			a.Rows(), a.Cols(), a.NNZ(), b.Rows(), b.Cols(), b.NNZ())
	}
	rng := rand.New(rand.NewSource(1))
	x := testmat.RandVec(rng, cols)
	y1 := make([]float64, a.Rows())
	y2 := make([]float64, a.Rows())
	a.SpMV(y1, x)
	b.SpMV(y2, x)
	testmat.AssertClose(t, "roundtrip SpMV", y2, y1, 1e-14)
}

func TestRoundTripCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := matgen.FEMLike(rng, 150, 5, matgen.Values{})
	m, _ := csr.FromCOO(c)
	back := roundTrip(t, m)
	if back.Name() != "csr" {
		t.Errorf("Name = %q", back.Name())
	}
	checkEqual(t, m, back, c.Cols())
}

func TestRoundTripCSRDU(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, o := range []csrdu.Options{{}, {RLE: true}} {
		c := matgen.BlockDiag(rng, 20, 10, matgen.Values{})
		m, _ := csrdu.FromCOOOpts(c, o)
		back := roundTrip(t, m)
		checkEqual(t, m, back, c.Cols())
		// The reconstructed matrix must still partition correctly.
		du := back.(*csrdu.Matrix)
		if len(du.Split(4)) == 0 {
			t.Error("reconstructed matrix cannot split")
		}
		if o.RLE && back.Name() != "csr-du-rle" {
			t.Errorf("RLE stream read back as %q", back.Name())
		}
	}
}

// TestCSRDUTagRoundTrips writes, reads and writes again a csr-du and a
// csr-du-rle matrix whose stream holds no RLE unit (Stencil2D(64)'s
// 5-nnz rows are under RLEMin): the second write must be the first
// byte for byte, so the tag survives a load.
func TestCSRDUTagRoundTrips(t *testing.T) {
	c := matgen.Stencil2D(64)
	for _, o := range []csrdu.Options{{}, {RLE: true}} {
		m, err := csrdu.FromCOOOpts(c, o)
		if err != nil {
			t.Fatal(err)
		}
		if m.Stats().RLEUnits != 0 {
			t.Fatalf("%s: %d RLE units, want none", m.Name(), m.Stats().RLEUnits)
		}
		var first, second bytes.Buffer
		if err := Write(&first, m); err != nil {
			t.Fatal(err)
		}
		back, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if back.Name() != m.Name() {
			t.Errorf("%s read back as %s", m.Name(), back.Name())
		}
		if err := Write(&second, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("%s: rewrite differs from the file it was read from", m.Name())
		}
	}
}

func TestRoundTripCSRVI(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, unique := range []int{5, 300} {
		c := matgen.RandomUniform(rng, 120, 400, 6, matgen.Values{Unique: unique})
		m, _ := csrvi.FromCOO(c)
		back := roundTrip(t, m)
		checkEqual(t, m, back, c.Cols())
		vi := back.(*csrvi.Matrix)
		if vi.IndexWidth() != m.IndexWidth() {
			t.Errorf("width %d -> %d", m.IndexWidth(), vi.IndexWidth())
		}
	}
}

func TestRejectUnsupportedFormat(t *testing.T) {
	c := core.NewCOO(2, 2)
	c.Add(0, 0, 1)
	c.Finalize()
	f := fake{}
	var buf bytes.Buffer
	if err := Write(&buf, f); err == nil {
		t.Error("unsupported format accepted")
	}
}

type fake struct{}

func (fake) Name() string        { return "fake" }
func (fake) Rows() int           { return 1 }
func (fake) Cols() int           { return 1 }
func (fake) NNZ() int            { return 0 }
func (fake) SizeBytes() int64    { return 0 }
func (fake) SpMV(y, x []float64) {}

func TestReadRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("NOPE....."),
		"truncated": []byte("SPMV"),
	}
	for name, b := range cases {
		if _, err := Read(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReadRejectsCorruptCtl(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := matgen.Banded(rng, 100, 5, 4, matgen.Values{})
	m, _ := csrdu.FromCOO(c)
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip bytes in the ctl section region; every corruption must either
	// read back to an equivalent-sized stream or fail cleanly (never
	// panic).
	for off := 40; off < len(raw); off += 7 {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0xff
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on corruption at offset %d: %v", off, r)
				}
			}()
			f, err := Read(bytes.NewReader(mut))
			if err == nil && f.NNZ() != m.NNZ() {
				t.Errorf("corruption at %d silently changed nnz", off)
			}
		}()
	}
}

func TestFromRawValidation(t *testing.T) {
	c := matgen.Stencil2D(6)
	m, _ := csrdu.FromCOO(c)
	// Valid raw reconstruction.
	back, err := csrdu.FromRaw(m.Ctl, m.Values, m.Rows(), m.Cols(), false)
	if err != nil {
		t.Fatal(err)
	}
	checkEqual(t, m, back, m.Cols())
	// Wrong value count.
	if _, err := csrdu.FromRaw(m.Ctl, m.Values[:len(m.Values)-1], m.Rows(), m.Cols(), false); err == nil {
		t.Error("short values accepted")
	}
	// Wrong dimensions.
	if _, err := csrdu.FromRaw(m.Ctl, m.Values, 2, 2, false); err == nil {
		t.Error("out-of-range rows accepted")
	}
	// Truncated stream.
	if _, err := csrdu.FromRaw(m.Ctl[:len(m.Ctl)-1], m.Values, m.Rows(), m.Cols(), false); err == nil {
		t.Error("truncated ctl accepted")
	}
	// Missing NR on first unit.
	bad := append([]byte(nil), m.Ctl...)
	bad[0] &^= 0x40
	if _, err := csrdu.FromRaw(bad, m.Values, m.Rows(), m.Cols(), false); err == nil {
		t.Error("NR-less first unit accepted")
	}
}
