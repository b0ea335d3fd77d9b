package matfile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"spmv/internal/core"
	"spmv/internal/csr"
	"spmv/internal/csrdu"
	"spmv/internal/csrvi"
	"spmv/internal/dcsr"
	"spmv/internal/matgen"
)

func TestRoundTripCSR16(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := matgen.Banded(rng, 80, 6, 4, matgen.Values{})
	m, err := csr.From16(c)
	if err != nil {
		t.Fatalf("From16: %v", err)
	}
	back := roundTrip(t, m)
	if back.Name() != "csr16" {
		t.Errorf("Name = %q", back.Name())
	}
	checkEqual(t, m, back, c.Cols())
}

func TestRoundTripDCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	c := matgen.RandomUniform(rng, 120, 300, 3, matgen.Values{})
	m, err := dcsr.FromCOO(c)
	if err != nil {
		t.Fatalf("FromCOO: %v", err)
	}
	back := roundTrip(t, m)
	if back.Name() != "dcsr" {
		t.Errorf("Name = %q", back.Name())
	}
	checkEqual(t, m, back, c.Cols())
}

func TestRoundTripCSRDUVI(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, o := range []csrdu.Options{{}, {RLE: true}} {
		c := matgen.BlockDiag(rng, 15, 8, matgen.Values{Unique: 9})
		m, err := csrdu.FromCOOVI(c, o)
		if err != nil {
			t.Fatalf("FromCOOOpts: %v", err)
		}
		back := roundTrip(t, m)
		if back.Name() != "csr-du-vi" {
			t.Errorf("Name = %q", back.Name())
		}
		checkEqual(t, m, back, c.Cols())
		vi := back.(*csrdu.Matrix)
		if vi.IndexWidth() != m.IndexWidth() {
			t.Errorf("width %d -> %d", m.IndexWidth(), vi.IndexWidth())
		}
	}
}

// writeV1 serializes a CSR matrix in the version-1 layout (no
// checksums), byte-for-byte what the old writer produced.
func writeV1(m *csr.Matrix) []byte {
	var buf bytes.Buffer
	buf.Write(magic[:])
	buf.WriteByte(1)
	name := m.Name()
	buf.WriteByte(byte(len(name)))
	buf.WriteString(name)
	for _, v := range []int64{int64(m.Rows()), int64(m.Cols()), int64(m.NNZ())} {
		binary.Write(&buf, binary.LittleEndian, v)
	}
	for _, s := range [][]byte{int32Bytes(m.RowPtr), int32Bytes(m.ColInd), floatBytes(m.Values)} {
		binary.Write(&buf, binary.LittleEndian, int64(len(s)))
		buf.Write(s)
	}
	return buf.Bytes()
}

func TestReadVersion1(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	c := matgen.FEMLike(rng, 60, 4, matgen.Values{})
	m, _ := csr.FromCOO(c)
	back, err := Read(bytes.NewReader(writeV1(m)))
	if err != nil {
		t.Fatalf("Read version-1 file: %v", err)
	}
	checkEqual(t, m, back, c.Cols())
}

func TestReadTypedErrors(t *testing.T) {
	m, _ := csr.FromCOO(matgen.Stencil2D(4))
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	t.Run("truncated", func(t *testing.T) {
		_, err := Read(bytes.NewReader(full[:len(full)-3]))
		if !errors.Is(err, core.ErrTruncated) {
			t.Fatalf("got %v, want ErrTruncated", err)
		}
	})
	t.Run("section corruption", func(t *testing.T) {
		mut := append([]byte(nil), full...)
		mut[len(mut)-10] ^= 0x01 // inside the values section
		_, err := Read(bytes.NewReader(mut))
		if !errors.Is(err, core.ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		mut := append([]byte(nil), full...)
		mut[0] ^= 0x01
		_, err := Read(bytes.NewReader(mut))
		if !errors.Is(err, core.ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("trailing data", func(t *testing.T) {
		mut := append(append([]byte(nil), full...), 0)
		_, err := Read(bytes.NewReader(mut))
		if !errors.Is(err, core.ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
}

// corruptionFixtures builds one small matrix per supported container
// format. The matrices are tiny so the injection test can afford to
// flip bits at every byte offset of every file.
func corruptionFixtures(t *testing.T) map[string]core.Format {
	t.Helper()
	rng := rand.New(rand.NewSource(15))
	c := matgen.Banded(rng, 24, 4, 3, matgen.Values{Unique: 6})
	out := make(map[string]core.Format)
	add := func(name string, f core.Format, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = f
	}
	m, err := csr.FromCOO(c)
	add("csr", m, err)
	m16, err := csr.From16(c)
	add("csr16", m16, err)
	du, err := csrdu.FromCOO(c)
	add("csr-du", du, err)
	rle, err := csrdu.FromCOOOpts(c, csrdu.Options{RLE: true})
	add(rle.Name(), rle, err)
	dc, err := dcsr.FromCOO(c)
	add("dcsr", dc, err)
	vi, err := csrvi.FromCOO(c)
	add("csr-vi", vi, err)
	duvi, err := csrdu.FromCOOVI(c, csrdu.Options{})
	add("csr-du-vi", duvi, err)
	return out
}

// TestSingleByteCorruption is the robustness contract of the container:
// flipping any single byte of a stored matrix either fails the load
// with a typed error or — never in practice with CRCs, but permitted
// by the contract — yields a matrix whose SpMV output is identical.
// Silent output changes are the one forbidden outcome.
func TestSingleByteCorruption(t *testing.T) {
	for name, f := range corruptionFixtures(t) {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Write(&buf, f); err != nil {
				t.Fatalf("Write: %v", err)
			}
			raw := buf.Bytes()
			x := make([]float64, f.Cols())
			for i := range x {
				x[i] = float64(i%5) + 0.5
			}
			want := make([]float64, f.Rows())
			f.SpMV(want, x)
			detected := 0
			for off := 0; off < len(raw); off++ {
				for _, bit := range []byte{0x01, 0x80} {
					mut := append([]byte(nil), raw...)
					mut[off] ^= bit
					g, err := Read(bytes.NewReader(mut))
					if err != nil {
						detected++
						continue
					}
					if g.Rows() != f.Rows() || g.Cols() != f.Cols() {
						t.Fatalf("offset %d bit %#x: silent shape change", off, bit)
					}
					got := make([]float64, g.Rows())
					g.SpMV(got, x)
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("offset %d bit %#x: silent output change at row %d (%v != %v)",
								off, bit, i, got[i], want[i])
						}
					}
				}
			}
			if detected == 0 {
				t.Fatal("no corruption was ever detected — checksums are not wired in")
			}
		})
	}
}

// FuzzRead feeds arbitrary bytes to the container reader: it must
// reject or accept without panicking, and anything it accepts must
// pass its format verifier and run SpMV in bounds.
func FuzzRead(f *testing.F) {
	rng := rand.New(rand.NewSource(16))
	c := matgen.Banded(rng, 16, 3, 2, matgen.Values{Unique: 4})
	for _, build := range []func() (core.Format, error){
		func() (core.Format, error) { return csr.FromCOO(c) },
		func() (core.Format, error) { return csrdu.FromCOO(c) },
		func() (core.Format, error) { return dcsr.FromCOO(c) },
		func() (core.Format, error) { return csrvi.FromCOO(c) },
		func() (core.Format, error) { return csrdu.FromCOOVI(c, csrdu.Options{}) },
	} {
		m, err := build()
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("SPMV"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if verr := core.Verify(g); verr != nil {
			t.Fatalf("Read accepted but Verify rejects: %v", verr)
		}
		x := make([]float64, g.Cols())
		y := make([]float64, g.Rows())
		g.SpMV(y, x)
	})
}
