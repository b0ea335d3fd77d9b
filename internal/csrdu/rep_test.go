package csrdu

import (
	"errors"
	"math/rand"
	"testing"

	"spmv/internal/core"
	"spmv/internal/matgen"
	"spmv/internal/testmat"
)

// TestMalformedFlagsRejected: bits 2-3 of uflags are reserved, and bit
// 4 (REP) is valid only on a well-formed REP unit. FromRaw and Verify
// must both reject every other use with ErrCorrupt, since a kernel
// would otherwise ignore the bit or decode the stream differently.
func TestMalformedFlagsRejected(t *testing.T) {
	const u8 = ClassU8
	cases := []struct {
		name       string
		ctl        []byte
		rows, cols int
		nvals      int
	}{
		{"bit 2", []byte{FlagNR | u8 | 0x04, 1, 0}, 2, 4, 1},
		{"bit 3", []byte{FlagNR | u8 | 0x08, 1, 0}, 2, 4, 1},
		{"bits 2-3 on a later unit", []byte{FlagNR | u8, 1, 0, u8 | 0x0c, 1, 1}, 2, 4, 2},
		{"REP without NR", []byte{FlagNR | u8, 1, 0, FlagREP | u8, 1, 1, 1}, 3, 4, 3},
		{"REP not the row's only unit", []byte{FlagNR | FlagREP | u8, 1, 0, 1, u8, 1, 2}, 3, 4, 3},
		{"REP on an RLE unit", []byte{FlagNR | FlagREP | FlagRLE, 2, 0, 1, 1}, 3, 4, 4},
		{"REP without its count byte", []byte{FlagNR | FlagREP | u8, 2, 0, 1}, 3, 4, 4},
		{"REP with a zero count", []byte{FlagNR | FlagREP | u8, 2, 0, 1, 0}, 3, 4, 2},
		{"REP shifted past the last column", []byte{FlagNR | FlagREP | u8, 2, 1, 1, 2}, 3, 4, 6},
		{"REP past the last row", []byte{FlagNR | FlagREP | u8, 2, 0, 1, 2}, 2, 4, 6},
		{"REP past the values", []byte{FlagNR | FlagREP | u8, 2, 0, 1, 2}, 3, 4, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := FromRaw(tc.ctl, make([]float64, tc.nvals), tc.rows, tc.cols, false); !errors.Is(err, core.ErrCorrupt) {
				t.Errorf("FromRaw: got %v, want ErrCorrupt", err)
			}
			m := &Matrix{rows: tc.rows, cols: tc.cols, Ctl: tc.ctl, Values: make([]float64, tc.nvals)}
			if err := m.Verify(); !errors.Is(err, core.ErrCorrupt) {
				t.Errorf("Verify: got %v, want ErrCorrupt", err)
			}
		})
	}
	// The well-formed REP unit the cases break: rows 0-2 of a 3x4
	// matrix hold columns {0, 1}, {1, 2} and {2, 3}.
	m, err := FromRaw([]byte{FlagNR | FlagREP | u8, 2, 0, 1, 2}, make([]float64, 6), 3, 4, false)
	if err != nil {
		t.Fatalf("well-formed REP unit rejected: %v", err)
	}
	var got [][2]int
	m.ForEach(func(i, j int, _ float64) { got = append(got, [2]int{i, j}) })
	want := [][2]int{{0, 0}, {0, 1}, {1, 1}, {1, 2}, {2, 2}, {2, 3}}
	if len(got) != len(want) {
		t.Fatalf("ForEach = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("ForEach = %v, want %v", got, want)
		}
	}
}

// repRuns returns the row range [first, last] of every REP unit of m.
func repRuns(m *Matrix) [][2]int {
	var runs [][2]int
	var cols [MaxUnit]int32
	row := -1
	for pos := 0; pos < len(m.Ctl); {
		flags, size := m.Ctl[pos], int(m.Ctl[pos+1])
		pos += 2
		if flags&FlagNR != 0 {
			skip := 1
			if flags&FlagRJMP != 0 {
				skip, pos = SkipRows(nil, 0, 1, m.Ctl, pos)
			}
			row += skip
		}
		pos, _ = DecodeUnit(m.Ctl, pos, flags, 0, cols[:size])
		if flags&FlagREP != 0 {
			r := int(m.Ctl[pos])
			pos++
			runs = append(runs, [2]int{row, row + r})
			row += r
		}
	}
	return runs
}

// TestSplitNeverCutsRepRun: row marks, and so chunk boundaries, fall
// on unit headers only, so no chunk of any partition starts inside the
// rows of a REP unit.
func TestSplitNeverCutsRepRun(t *testing.T) {
	for name, c := range map[string]*core.COO{
		"stencil3d": matgen.Stencil3D(12),
		"stencil2d": matgen.Stencil2D(40),
	} {
		m, err := FromCOO(c)
		if err != nil {
			t.Fatal(err)
		}
		runs := repRuns(m)
		if len(runs) == 0 {
			t.Fatalf("%s: no REP units", name)
		}
		for n := 1; n <= 64; n++ {
			for _, ch := range m.Split(n) {
				lo, hi := ch.RowRange()
				for _, r := range runs {
					if (lo > r[0] && lo <= r[1]) || (hi > r[0] && hi <= r[1]) {
						t.Fatalf("%s: Split(%d) chunk [%d,%d) cuts the REP run of rows %d-%d", name, n, lo, hi, r[0], r[1])
					}
				}
			}
		}
	}
}

// TestEncoderREPRuns pins the encoder's REP rule: exact repeats only,
// of rows that are one non-RLE unit, greedy and at most MaxRep rows a
// unit.
func TestEncoderREPRuns(t *testing.T) {
	// Every row of a Toeplitz band repeats the one above: runs of
	// MaxRep+1 rows from the first, whose base is row 0.
	const n = 1000
	band := core.NewCOO(n, n+2)
	for i := 0; i < n; i++ {
		for d := 0; d < 3; d++ {
			band.Add(i, i+d, float64(1+d))
		}
	}
	m, err := FromCOO(band)
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int{{0, 255}, {256, 511}, {512, 767}, {768, 999}}
	if got := repRuns(m); len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] || got[3] != want[3] {
		t.Fatalf("Toeplitz REP runs %v, want %v", got, want)
	}
	if st := m.Stats(); st.Units != 4 || st.RepUnits != 4 || st.RepRows != n {
		t.Fatalf("Toeplitz stats %+v", st)
	}

	// Stencil3D(g): on each grid line the first and last rows lack a
	// neighbour, and the rows between them repeat the first of them:
	// three units a line, one of them a REP unit covering g-2 rows.
	const g = 10
	st3, err := FromCOO(matgen.Stencil3D(g))
	if err != nil {
		t.Fatal(err)
	}
	s := st3.Stats()
	if s.RepUnits != g*g || s.RepRows != g*g*(g-2) || s.Units != 3*g*g {
		t.Fatalf("Stencil3D(%d) stats %+v: want %d REP units covering %d rows, %d units", g, s, g*g, g*g*(g-2), 3*g*g)
	}

	// Under RLE a row that is one RLE unit carries no run, but a row
	// that stays one non-RLE unit does.
	rle, err := FromCOOOpts(band, Options{RLE: true, RLEMin: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st := rle.Stats(); st.RepUnits != 0 || st.RLEUnits != n {
		t.Fatalf("RLE Toeplitz stats %+v: want %d RLE units, no REP", st, n)
	}
	rle4, err := FromCOOOpts(band, Options{RLE: true})
	if err != nil {
		t.Fatal(err)
	}
	if st := rle4.Stats(); st.RepUnits != 4 {
		t.Fatalf("rows below RLEMin: stats %+v, want 4 REP units", st)
	}

	// No row of these repeats the row above: no REP unit.
	rng := rand.New(rand.NewSource(4))
	for name, c := range map[string]*core.COO{
		"skewed": matgen.SkewedRows(rng, 3000, 8, 0, 0.2, matgen.Values{}),
		"random": matgen.RandomUniform(rng, 2000, 2000, 16, matgen.Values{}),
	} {
		m, err := FromCOO(c)
		if err != nil {
			t.Fatal(err)
		}
		if st := m.Stats(); st.RepUnits != 0 {
			t.Errorf("%s: %d REP units", name, st.RepUnits)
		}
	}
}

// TestREPUnitsBitwise runs the encoder's REP streams through every
// kernel under both value codecs.
func TestREPUnitsBitwise(t *testing.T) {
	for name, c := range map[string]*core.COO{
		"stencil3d":  matgen.Stencil3D(9),
		"stencil2d9": matgen.Stencil2D9(20),
	} {
		t.Run(name, func(t *testing.T) {
			m, err := FromCOO(c)
			if err != nil {
				t.Fatal(err)
			}
			if m.Stats().RepUnits == 0 {
				t.Fatal("no REP units")
			}
			testmat.CheckBitwise(t, m, 9, testmat.Reference(m), 1, 2, 3, 4, 8, 9)
			vi, err := FromCOOVI(c, Options{})
			if err != nil {
				t.Fatal(err)
			}
			testmat.CheckBitwise(t, vi, 9, testmat.Reference(m), 1, 3, 4, 8)
		})
	}
}
