package csrdu

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"spmv/internal/core"
	"spmv/internal/csr"
	"spmv/internal/matgen"
	"spmv/internal/testmat"
)

// FuzzFromRaw feeds arbitrary ctl streams to the validating
// deserializer: it must reject or accept without panicking, and for
// anything it accepts the kernel must stay in bounds and agree with a
// reference CSR built from the decoded triplets. Each accepted stream
// is run again under the dictionary codec (checkDictionaryCodec).
func FuzzFromRaw(f *testing.F) {
	// Seed with real streams.
	m, _ := FromCOO(matgen.Stencil2D(5))
	f.Add(m.Ctl, 25, 25, len(m.Values))
	rle, _ := FromCOOOpts(matgen.Stencil2D(5), Options{RLE: true, RLEMin: 3})
	f.Add(rle.Ctl, 25, 25, len(rle.Values))
	f.Add([]byte{FlagNR | ClassU8, 1, 0}, 1, 1, 1)
	// Leading empty rows, a padded ujmp, a row jump, a u16 unit whose
	// deltas end the stream, trailing empty rows.
	f.Add([]byte{FlagNR | FlagRJMP | ClassU8, 2, 3, 0x81, 0x80, 0x00, 4,
		FlagNR | FlagRJMP | ClassU16, 3, 2, 5, 0x2c, 0x01, 0x04, 0x01}, 9, 700, 5)
	f.Add([]byte{}, 3, 3, 0)
	f.Add(rjmpWithoutNR, 2, 16, 6)
	// The hand-built REP streams, and an encoded stencil with REP runs.
	for _, s := range testmat.DUStreams() {
		if s.Name == "rep" || s.Name == "rep-only" {
			f.Add(s.Ctl, s.Rows, s.Cols, s.NNZ)
		}
	}
	rep, _ := FromCOO(matgen.Stencil3D(6))
	f.Add(rep.Ctl, 216, 216, len(rep.Values))
	f.Fuzz(func(t *testing.T, ctl []byte, rows, cols, nvals int) {
		if rows <= 0 || cols <= 0 || rows > 1000 || cols > 1000 || nvals < 0 || nvals > 10000 {
			return
		}
		values := make([]float64, nvals)
		for i := range values {
			values[i] = float64(i + 1)
		}
		mat, err := FromRaw(ctl, values, rows, cols)
		if err != nil {
			return
		}
		// Accepted streams must also pass Verify — FromRaw and
		// Verify share the same scan, so a divergence is a bug.
		if verr := mat.Verify(); verr != nil {
			t.Fatalf("FromRaw accepted but Verify rejects: %v", verr)
		}
		// Stats walks the headers on its own: it must not panic, and
		// its counts must agree with an independent header walk.
		checkStats(t, mat)
		// The kernel must run in bounds and the decode walk must
		// agree with nnz.
		x := make([]float64, cols)
		y := make([]float64, rows)
		for i := range x {
			x[i] = float64(i%5) + 1
		}
		mat.SpMV(y, x)
		count := 0
		mat.ForEach(func(i, j int, v float64) {
			if i < 0 || i >= rows || j < 0 || j >= cols {
				t.Fatalf("ForEach out of range: (%d,%d)", i, j)
			}
			count++
		})
		if count != len(values) {
			t.Fatalf("decoded %d elements, expected %d", count, len(values))
		}
		// Accepted ⇒ the kernel result matches a reference CSR of
		// the decoded triplets.
		ref, err := csr.FromCOO(mat.Triplets())
		if err != nil {
			t.Fatalf("reference CSR: %v", err)
		}
		yref := make([]float64, rows)
		ref.SpMV(yref, x)
		for i := range y {
			if y[i] != yref[i] {
				t.Fatalf("row %d: kernel %v, reference %v", i, y[i], yref[i])
			}
		}
		// The scalar kernel and every panel kernel (k=3 takes the
		// generic width), whole and on every chunk of Split(1..4), keep
		// the left-to-right sums and write their own rows only — on
		// hostile streams too.
		testmat.CheckBitwise(t, mat, 4, testmat.Reference(mat), 1, 3, 4, 8)
		checkDictionaryCodec(t, ctl, rows, cols, nvals)
	})
}

// checkDictionaryCodec runs an accepted ctl stream under the dictionary
// codec at val_ind widths 1, 2 and 4, with indices cycling through a
// table a third the stream's length: FromRawVI must accept it, and its
// scalar and panel kernels, whole and on every chunk, must give the
// plain codec's bits for the same values. A table one entry short,
// which the last index then points past, must be rejected by FromRawVI
// and by Verify.
func checkDictionaryCodec(t *testing.T, ctl []byte, rows, cols, nvals int) {
	t.Helper()
	for _, width := range []int{1, 2, 4} {
		unique := make([]float64, min(nvals/3+1, 256<<(8*(width-1))))
		for u := range unique {
			unique[u] = 0.5 + float64(u)
		}
		vi := make([]byte, nvals*width)
		values := make([]float64, nvals)
		for k := range values {
			u := k % len(unique)
			values[k] = unique[u]
			switch width {
			case 1:
				vi[k] = byte(u)
			case 2:
				binary.LittleEndian.PutUint16(vi[2*k:], uint16(u))
			default:
				binary.LittleEndian.PutUint32(vi[4*k:], uint32(u))
			}
		}
		plain, err := FromRaw(ctl, values, rows, cols)
		if err != nil {
			t.Fatalf("plain codec rejects an accepted stream: %v", err)
		}
		dict, err := FromRawVI(ctl, width, vi, unique, rows, cols)
		if err != nil {
			t.Fatalf("width %d: dictionary codec rejects an accepted stream: %v", width, err)
		}
		if err := dict.Verify(); err != nil {
			t.Fatalf("width %d: FromRawVI accepted but Verify rejects: %v", width, err)
		}
		testmat.CheckBitwise(t, dict, 4, testmat.Reference(plain), 1, 3, 4, 8)
		for _, k := range []int{1, 8} {
			x := make([]float64, cols*k)
			for i := range x {
				x[i] = float64(i%7) - 2.5
			}
			want := make([]float64, rows*k)
			got := make([]float64, rows*k)
			plain.SpMVBatch(want, x, k)
			dict.SpMVBatch(got, x, k)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("width %d, k=%d, element %d: dictionary codec %v, plain codec %v", width, k, i, got[i], want[i])
				}
			}
		}
		if nvals == 0 {
			continue
		}
		short := unique[:len(unique)-1]
		if _, err := FromRawVI(ctl, width, vi, short, rows, cols); !errors.Is(err, core.ErrCorrupt) {
			t.Fatalf("width %d: index past the unique table: FromRawVI returned %v, want ErrCorrupt", width, err)
		}
		bad := *dict
		bad.Unique = short
		if err := bad.Verify(); !errors.Is(err, core.ErrCorrupt) {
			t.Fatalf("width %d: index past the unique table: Verify returned %v, want ErrCorrupt", width, err)
		}
	}
}

// checkStats compares (*Matrix).Stats with a header walk that reuses
// DecodeUnit, the unit decoder of the generic-width panel kernels, to
// step over each unit.
func checkStats(t *testing.T, m *Matrix) {
	t.Helper()
	var want UnitStats
	want.CtlBytes = len(m.Ctl)
	var cols [MaxUnit]int32
	total := 0
	for pos := 0; pos < len(m.Ctl); {
		flags, size := m.Ctl[pos], int(m.Ctl[pos+1])
		pos += 2
		if flags&FlagRJMP != 0 {
			_, pos = SkipRows(nil, 0, 0, m.Ctl, pos)
		}
		pos, _ = DecodeUnit(m.Ctl, pos, flags, 0, cols[:size])
		if flags&FlagRLE != 0 {
			want.RLEUnits++
		} else {
			want.PerClass[flags&TypeMask]++
		}
		if flags&FlagREP != 0 {
			want.RepUnits++
			want.RepRows += int(m.Ctl[pos]) + 1
			pos++
		}
		want.Units++
		total += size
	}
	if want.Units > 0 {
		want.AvgSize = float64(total) / float64(want.Units)
	}
	if got := m.Stats(); got != want {
		t.Fatalf("Stats = %+v, header walk %+v", got, want)
	}
}
