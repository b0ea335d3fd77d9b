package mmio

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"

	"spmv/internal/core"
	"spmv/internal/matgen"
)

// The 58-byte upload that used to panic COO.Add: the mirror of (1,3)
// is (3,1), outside a 2x3 matrix.
const nonSquareSymmetric = "%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 3 1\n"

func TestReadRejectsNonSquareSymmetric(t *testing.T) {
	for _, in := range []string{
		nonSquareSymmetric,
		"%%MatrixMarket matrix coordinate real skew-symmetric\n3 2 1\n3 1 1\n",
		// Every entry is inside both triangles' bounds, but the
		// expanded matrix still has no well-defined mirror.
		"%%MatrixMarket matrix coordinate pattern symmetric\n2 3 1\n1 1\n",
	} {
		_, err := Read(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), "must be square") {
			t.Errorf("%q: error %v, want a must-be-square error", in, err)
		}
	}
}

func TestReadRejectsDataAfterEntries(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1\n2 2 5\n"
	_, err := Read(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "after the 1 declared entries") {
		t.Fatalf("error %v, want one naming the 1 declared entries", err)
	}
	// Blank and comment lines may follow the entries.
	in = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1\n\n  \t\n% done\n  % indented\r\n"
	if _, err := Read(strings.NewReader(in)); err != nil {
		t.Fatalf("trailing blank and comment lines: %v", err)
	}
}

func TestReadRejectsOversizedDimensions(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real general\n3000000000 1 0\n"
	if _, err := Read(strings.NewReader(in)); err == nil {
		t.Fatal("a 3e9-row matrix was accepted")
	}
}

func TestReadStreamAllocatesNothingPerLine(t *testing.T) {
	text := func(n int) []byte {
		var b bytes.Buffer
		fmt.Fprintf(&b, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n", n, n, n)
		for i := 1; i <= n; i++ {
			fmt.Fprintf(&b, "%d %d %.17g\n", i, i, 1/float64(i))
		}
		return b.Bytes()
	}
	allocs := func(in []byte) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := ReadStream(bytes.NewReader(in), nil, func(int, int, float64) {}); err != nil {
				t.Fatal(err)
			}
		})
	}
	// The per-file count jitters by one or two (fmt.Sscan's pooled
	// state may be gone after a GC); one allocation per line would add
	// 20 000.
	small, large := allocs(text(100)), allocs(text(20100))
	if large > small+5 {
		t.Errorf("allocations grow with lines: %v for 100 entries, %v for 20 100", small, large)
	}
}

func TestWriteMatchesFprintf(t *testing.T) {
	c := core.NewCOO(3, 4)
	for k, v := range []float64{math.Copysign(0, -1), 5e-324, 1e21, 1e-7, math.MaxFloat64,
		-math.MaxFloat64, 0.1, -2.5, 1, 123456789012345678} {
		c.Add(k%3, k%4, v)
	}
	var got, want bytes.Buffer
	if err := Write(&got, c); err != nil {
		t.Fatal(err)
	}
	if err := oracleWrite(&want, c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("Write:\n%s\nfmt:\n%s", got.Bytes(), want.Bytes())
	}
	// And on a generated matrix whose values need all 17 digits.
	big := matgen.Stencil2D(30)
	big.Scale(1 / 3.0)
	got.Reset()
	want.Reset()
	if err := Write(&got, big); err != nil {
		t.Fatal(err)
	}
	if err := oracleWrite(&want, big); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("Write differs from fmt on Stencil2D(30)/3")
	}
}

type emitted struct {
	i, j int
	bits uint64
}

func readAll(read func(io.Reader, func(Size), func(int, int, float64)) (Size, error), in []byte) ([]emitted, Size, error) {
	var out []emitted
	s, err := read(bytes.NewReader(in), nil, func(i, j int, v float64) {
		out = append(out, emitted{i, j, math.Float64bits(v)})
	})
	return out, s, err
}

// hasUnicodeSpace reports whether in holds a non-ASCII rune that
// unicode.IsSpace accepts: a separator for the oracle, not for
// ReadStream.
func hasUnicodeSpace(in []byte) bool {
	for len(in) > 0 {
		r, n := utf8.DecodeRune(in)
		if r >= utf8.RuneSelf && unicode.IsSpace(r) {
			return true
		}
		in = in[n:]
	}
	return false
}

// FuzzReadStream holds ReadStream to the field-splitting reader it
// replaced: whatever ReadStream accepts, the oracle accepts with the
// same size and the same emit calls, bit for bit. Where the oracle
// accepts and ReadStream rejects, the input declares more than 2^31-1
// rows or columns, is a non-square symmetric header, has data after its
// declared entries (and ReadStream emitted every entry the oracle did
// before saying so), or separates fields with Unicode white space.
func FuzzReadStream(f *testing.F) {
	for _, s := range []string{
		"%%MatrixMarket matrix coordinate real general\n% c\n3 4 3\n1 1 1.5\n2 3 -2.0\n3 4 4e2\n",
		"%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n1 1 2.0\n2 1 -1.0\n3 2 5.0\n",
		"%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 3.0\n",
		"%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n2 1\n",
		"%%MatrixMarket MATRIX Coordinate INTEGER General\r\n\r\n2 2 1\r\n 1\t1  42 \r\n% end\r\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 0x1p-2\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n+1 -1 1\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 nan\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1\n2 2 5\n",
		nonSquareSymmetric,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		got, gs, gerr := readAll(ReadStream, in)
		want, ws, werr := readAll(oracleReadStream, in)
		switch {
		case gerr == nil && werr != nil:
			t.Fatalf("ReadStream accepted what the oracle rejects (%v)", werr)
		case gerr == nil:
			if gs != ws {
				t.Fatalf("size %+v, oracle %+v", gs, ws)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("emits %v, oracle %v", got, want)
			}
		case werr == nil:
			msg := gerr.Error()
			switch {
			case hasUnicodeSpace(in):
			case strings.Contains(msg, "invalid size"):
				if ws.Rows <= math.MaxInt32 && ws.Cols <= math.MaxInt32 {
					t.Fatalf("%v, but the oracle read a %dx%d matrix", gerr, ws.Rows, ws.Cols)
				}
			case strings.Contains(msg, "must be square"):
				if ws.Header.Symmetry == "general" || ws.Rows == ws.Cols {
					t.Fatalf("%v, but the oracle read a %s %dx%d matrix", gerr, ws.Header.Symmetry, ws.Rows, ws.Cols)
				}
			case strings.Contains(msg, "declared entries"):
				if !slices.Equal(got, want) {
					t.Fatalf("%v after emits %v, oracle %v", gerr, got, want)
				}
			default:
				t.Fatalf("ReadStream rejected what the oracle accepts: %v", gerr)
			}
		}
	})
}
