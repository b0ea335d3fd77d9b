package csrdu

import (
	"errors"
	"math/rand"
	"testing"

	"spmv/internal/core"
	"spmv/internal/csr"
	"spmv/internal/matgen"
)

func verifyFixtures(t *testing.T) map[string]*Matrix {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	fix := map[string]*core.COO{
		"stencil": matgen.Stencil2D(6),
		"banded":  matgen.Banded(rng, 40, 8, 5, matgen.Values{}),
		"random":  matgen.RandomUniform(rng, 30, 50, 4, matgen.Values{}),
	}
	out := make(map[string]*Matrix)
	for name, c := range fix {
		m, err := FromCOO(c)
		if err != nil {
			t.Fatalf("%s: FromCOO: %v", name, err)
		}
		out[name] = m
		rle, err := FromCOOOpts(c, Options{RLE: true, RLEMin: 3})
		if err != nil {
			t.Fatalf("%s: FromCOOOpts(RLE): %v", name, err)
		}
		out[name+"-rle"] = rle
	}
	return out
}

func TestVerifyClean(t *testing.T) {
	for name, m := range verifyFixtures(t) {
		if err := m.Verify(); err != nil {
			t.Errorf("%s: Verify on freshly encoded matrix: %v", name, err)
		}
	}
	empty, err := FromCOO(core.NewCOO(3, 3))
	if err != nil {
		t.Fatalf("empty FromCOO: %v", err)
	}
	if err := empty.Verify(); err != nil {
		t.Errorf("empty matrix: %v", err)
	}
}

// TestDictionaryCodecHoldsNoValueStream: a dictionary-codec matrix,
// encoded or read back from its streams, keeps val_ind, the unique
// table and one set of row marks, and no float64 per non-zero, so
// SizeBytes (the unit of spmvd's memory budget) is what it holds.
func TestDictionaryCodecHoldsNoValueStream(t *testing.T) {
	enc, err := FromCOOVI(matgen.Stencil2D(20), Options{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := FromRawVI(enc.Ctl, 1, enc.VI8, enc.Unique, enc.Rows(), enc.Cols())
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*Matrix{"FromCOOVI": enc, "FromRawVI": raw} {
		if m.Values != nil || m.VI16 != nil || m.VI32 != nil {
			t.Errorf("%s: holds %d values, %d and %d wide indices beside val_ind", name, len(m.Values), len(m.VI16), len(m.VI32))
		}
		if m.Name() != "csr-du-vi" || m.IndexWidth() != 1 || len(m.VI8) != m.NNZ() {
			t.Errorf("%s: name %q, width %d, %d indices for %d non-zeros", name, m.Name(), m.IndexWidth(), len(m.VI8), m.NNZ())
		}
		if want := int64(len(m.Ctl)+len(m.VI8)) + int64(len(m.Unique))*core.ValSize; m.SizeBytes() != want {
			t.Errorf("%s: SizeBytes %d, holds %d", name, m.SizeBytes(), want)
		}
		if len(m.marks) != len(enc.marks) {
			t.Errorf("%s: %d row marks, want %d", name, len(m.marks), len(enc.marks))
		}
	}
}

func TestVerifyDetectsMarkTamper(t *testing.T) {
	m, _ := FromCOO(matgen.Stencil2D(5))
	m.marks[1].val++
	err := m.Verify()
	if !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("tampered row mark: got %v, want ErrCorrupt", err)
	}
}

func TestVerifyDetectsTruncation(t *testing.T) {
	m, _ := FromCOO(matgen.Stencil2D(5))
	m.Ctl = m.Ctl[:len(m.Ctl)-1]
	err := m.Verify()
	if err == nil {
		t.Fatal("truncated ctl stream passed Verify")
	}
	if !errors.Is(err, core.ErrCorrupt) && !errors.Is(err, core.ErrTruncated) && !errors.Is(err, core.ErrShape) {
		t.Fatalf("truncated ctl stream: error %v does not wrap a core sentinel", err)
	}
}

// TestCtlSingleByteFlips exercises the robustness contract on the raw
// index stream: for every single-byte flip of a real ctl stream,
// FromRaw either rejects the stream with a typed error, or the
// accepted matrix is self-consistent — its kernel stays in bounds and
// agrees with a reference CSR built from its own decode. (Byte-exact
// flip *detection* is the container's CRC job; structure alone cannot
// distinguish a flipped delta that still lands in range.)
func TestCtlSingleByteFlips(t *testing.T) {
	orig, _ := FromCOO(matgen.Stencil2D(5))
	rows, cols := orig.Rows(), orig.Cols()
	x := make([]float64, cols)
	for i := range x {
		x[i] = float64(i%7) + 0.5
	}
	for pos := 0; pos < len(orig.Ctl); pos++ {
		for _, bit := range []byte{0x01, 0x10, 0x80} {
			ctl := make([]byte, len(orig.Ctl))
			copy(ctl, orig.Ctl)
			ctl[pos] ^= bit
			m, err := FromRaw(ctl, orig.Values, rows, cols)
			if err != nil {
				if !errors.Is(err, core.ErrCorrupt) && !errors.Is(err, core.ErrTruncated) && !errors.Is(err, core.ErrShape) {
					t.Fatalf("flip byte %d bit %#x: error %v does not wrap a core sentinel", pos, bit, err)
				}
				continue
			}
			if verr := m.Verify(); verr != nil {
				t.Fatalf("flip byte %d bit %#x: FromRaw accepted but Verify rejects: %v", pos, bit, verr)
			}
			ref, err := csr.FromCOO(m.Triplets())
			if err != nil {
				t.Fatalf("flip byte %d bit %#x: reference CSR: %v", pos, bit, err)
			}
			y := make([]float64, rows)
			yref := make([]float64, rows)
			m.SpMV(y, x)
			ref.SpMV(yref, x)
			for i := range y {
				if y[i] != yref[i] {
					t.Fatalf("flip byte %d bit %#x: row %d: kernel %v, reference %v", pos, bit, i, y[i], yref[i])
				}
			}
		}
	}
}

// rjmpWithoutNR is a stream whose second unit sets RJMP but not NR: the
// grammar allows a row jump only on a new-row header, and every decoder
// reads the rjmp varint only under NR.
var rjmpWithoutNR = []byte{0x40, 0x02, 0x01, 0x02, 0x21, 0x03, 0x03, 0x01, 0x00, 0x01, 0x00, 0x40, 0x01, 0x00}

func TestVerifyRejectsRowJumpWithoutNewRow(t *testing.T) {
	_, err := FromRaw(rjmpWithoutNR, make([]float64, 6), 2, 16)
	if !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("RJMP without NR: got %v, want ErrCorrupt", err)
	}
	// The same units with the jump flag cleared are well formed, and
	// Stats counts them like the header walk does.
	ctl := append([]byte(nil), rjmpWithoutNR...)
	ctl[4] &^= FlagRJMP
	m, err := FromRaw(ctl, make([]float64, 6), 2, 16)
	if err != nil {
		t.Fatalf("RJMP cleared: %v", err)
	}
	if got, want := m.Stats(), (UnitStats{Units: 3, PerClass: [4]int{2, 1, 0, 0}, AvgSize: 2, CtlBytes: 14}); got != want {
		t.Fatalf("Stats = %+v, want %+v", got, want)
	}
}
