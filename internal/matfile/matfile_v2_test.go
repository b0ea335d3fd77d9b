package matfile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"

	"spmv/internal/core"
	"spmv/internal/csr"
	"spmv/internal/csrdu"
	"spmv/internal/dcsr"
	"spmv/internal/matgen"
)

// TestReadRefusesRetiredTagAndVersion writes by hand, each under a
// valid header checksum, a version-2 file under the retired csr16 tag
// (16-bit column indices, which earlier writers produced) and a
// version-3 file. Both are refused as corrupt input, like every other
// refusal of the reader.
func TestReadRefusesRetiredTagAndVersion(t *testing.T) {
	c := matgen.Stencil2D(4)
	m, err := csr.FromCOO(c)
	if err != nil {
		t.Fatal(err)
	}
	cols := make([]uint16, len(m.ColInd))
	for k, j := range m.ColInd {
		cols[k] = uint16(j)
	}
	csr16 := containerFile("csr16", m.Rows(), m.Cols(), m.NNZ(),
		int32Bytes(m.RowPtr), uint16Bytes(cols), floatBytes(m.Values))
	v3 := containerFile("csr", m.Rows(), m.Cols(), m.NNZ(),
		int32Bytes(m.RowPtr), int32Bytes(m.ColInd), floatBytes(m.Values))
	if _, err := Read(bytes.NewReader(v3)); err != nil {
		t.Fatalf("the version-2 csr file is refused: %v", err)
	}
	v3[len(magic)] = 3
	for name, b := range map[string][]byte{"csr16": csr16, "version3": v3} {
		if _, err := Read(bytes.NewReader(b)); !errors.Is(err, core.ErrCorrupt) {
			t.Errorf("%s: got %v, want core.ErrCorrupt", name, err)
		}
	}
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
	du, err := csrdu.FromCOO(c)
	add("csr-du", du, err)
	rle, err := csrdu.FromCOOOpts(c, csrdu.Options{RLE: true})
	add(rle.Name(), rle, err)
	dc, err := dcsr.FromCOO(c)
	add("dcsr", dc, err)
	vi, err := csr.FromCOOVI(c)
	add("csr-vi", vi, err)
	duvi, err := csrdu.FromCOOVI(c, csrdu.Options{})
	add("csr-du-vi", duvi, err)
	return out
}

// TestReadRefusesRaggedSections appends 1-7 stray bytes, under a valid
// checksum, to every fixed-width section of every tag. Each file must
// be refused; a section that no longer holds a whole number of its
// int32 or float64 elements with core.ErrCorrupt. The ctl and
// command byte streams have no element width and are left alone.
func TestReadRefusesRaggedSections(t *testing.T) {
	// Per section: the element width the reader converts it at (a
	// ragged tail is ErrCorrupt), -1 for a section whose length the
	// header fixes (the width byte, val_ind), 0 for a byte stream.
	layouts := map[string][]int{
		"csr":        {4, 4, 8},
		"csr-du":     {0, 8},
		"csr-du-rle": {0, 8},
		"dcsr":       {0, 8},
		"csr-vi":     {4, 4, -1, -1, 8},
		"csr-du-vi":  {0, -1, -1, 8},
	}
	files := map[string][]byte{}
	for name, f := range corruptionFixtures(t) {
		var buf bytes.Buffer
		if err := Write(&buf, f); err != nil {
			t.Fatalf("%s: Write: %v", name, err)
		}
		files[name] = buf.Bytes()
	}
	// The plain value codec of both value-coded tags: width 0, an empty
	// val_ind and nnz values.
	distinct := viShapes()[0]
	files["csr-vi/plain"] = viFile(distinct, false, 0, nil, floatBytes(distinct.V))
	files["csr-du-vi/plain"] = viFile(distinct, true, 0, nil, floatBytes(distinct.V))
	for name, raw := range files {
		if _, err := Read(bytes.NewReader(raw)); err != nil {
			t.Fatalf("%s: the unmodified file is refused: %v", name, err)
		}
		tag, _, _ := strings.Cut(name, "/")
		// The sections start after magic, version, the length-prefixed
		// name, three dimensions and the header checksum.
		off := 4 + 1 + 1 + len(tag) + 24 + 4
		for sec, size := range layouts[tag] {
			n := int(binary.LittleEndian.Uint64(raw[off:]))
			body := raw[off+8 : off+8+n]
			next := off + 8 + n + 4
			for stray := 1; stray <= 7 && size != 0; stray++ {
				t.Run(fmt.Sprintf("%s/section%d/+%d", name, sec, stray), func(t *testing.T) {
					grown := append(append([]byte(nil), body...), make([]byte, stray)...)
					var mut bytes.Buffer
					mut.Write(raw[:off])
					_ = binary.Write(&mut, binary.LittleEndian, int64(len(grown))) // a bytes.Buffer write cannot fail
					mut.Write(grown)
					_ = binary.Write(&mut, binary.LittleEndian, crc32.ChecksumIEEE(grown))
					mut.Write(raw[next:])
					_, err := Read(bytes.NewReader(mut.Bytes()))
					if err == nil {
						t.Fatal("Read accepted the grown section")
					}
					if size > 0 && stray%size != 0 && !errors.Is(err, core.ErrCorrupt) {
						t.Fatalf("got %v, want core.ErrCorrupt", err)
					}
				})
			}
			off = next
		}
		if off != len(raw) {
			t.Fatalf("%s: the layout covers %d of %d bytes", name, off, len(raw))
		}
	}
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
// pass its format verifier and run SpMV in bounds. ReadSized must agree
// with Read on every input (readBoth).
func FuzzRead(f *testing.F) {
	rng := rand.New(rand.NewSource(16))
	c := matgen.Banded(rng, 16, 3, 2, matgen.Values{Unique: 4})
	for _, build := range []func() (core.Format, error){
		func() (core.Format, error) { return csr.FromCOO(c) },
		func() (core.Format, error) { return csrdu.FromCOO(c) },
		func() (core.Format, error) { return dcsr.FromCOO(c) },
		func() (core.Format, error) { return csr.FromCOOVI(c) },
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
	m, err := csr.FromCOO(c)
	if err != nil {
		f.Fatal(err)
	}
	for _, b := range sizedSeeds(m) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := readBoth(t, data)
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
