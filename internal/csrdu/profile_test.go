package csrdu

import (
	"math/rand"
	"testing"

	"spmv/internal/core"
	"spmv/internal/matgen"
)

func profileMatrices(t *testing.T) map[string]*Matrix {
	t.Helper()
	out := map[string]*Matrix{}
	cases := []struct {
		name string
		gen  func() *Matrix
	}{
		{"banded", func() *Matrix {
			m, err := FromCOO(matgen.Banded(rand.New(rand.NewSource(1)), 3000, 30, 6, matgen.Values{}))
			if err != nil {
				t.Fatal(err)
			}
			return m
		}},
		{"random", func() *Matrix {
			m, err := FromCOO(matgen.RandomUniform(rand.New(rand.NewSource(2)), 2000, 2000, 5, matgen.Values{}))
			if err != nil {
				t.Fatal(err)
			}
			return m
		}},
		{"stencil-rle", func() *Matrix {
			m, err := FromCOOOpts(matgen.Stencil2D(50), Options{RLE: true, RLEMin: 3})
			if err != nil {
				t.Fatal(err)
			}
			return m
		}},
		{"powerlaw", func() *Matrix {
			m, err := FromCOO(matgen.PowerLaw(rand.New(rand.NewSource(3)), 3000, 4, 0.7, matgen.Values{}))
			if err != nil {
				t.Fatal(err)
			}
			return m
		}},
	}
	for _, c := range cases {
		out[c.name] = c.gen()
	}
	return out
}

// TestProfileAgreesWithStats pins the acceptance criterion that the
// profile's unit-type histogram totals equal the encoder's unit count:
// Profile and Stats walk the same stream and must agree exactly.
func TestProfileAgreesWithStats(t *testing.T) {
	for name, m := range profileMatrices(t) {
		s := m.Stats()
		p := m.Profile(8)
		if p.Units != s.Units {
			t.Errorf("%s: Profile units %d != Stats units %d", name, p.Units, s.Units)
		}
		if p.PerClass != s.PerClass {
			t.Errorf("%s: Profile PerClass %v != Stats %v", name, p.PerClass, s.PerClass)
		}
		if p.RLEUnits != s.RLEUnits {
			t.Errorf("%s: Profile RLEUnits %d != Stats %d", name, p.RLEUnits, s.RLEUnits)
		}
		if p.CtlBytes != s.CtlBytes {
			t.Errorf("%s: Profile CtlBytes %d != Stats %d", name, p.CtlBytes, s.CtlBytes)
		}
		if p.AvgUnitSize != s.AvgSize {
			t.Errorf("%s: Profile AvgUnitSize %v != Stats %v", name, p.AvgUnitSize, s.AvgSize)
		}
		if p.RepUnits != s.RepUnits || p.RepRows != s.RepRows {
			t.Errorf("%s: Profile REP units/rows %d/%d != Stats %d/%d", name, p.RepUnits, p.RepRows, s.RepUnits, s.RepRows)
		}
		rows := map[int]bool{}
		m.ForEach(func(i, _ int, _ float64) { rows[i] = true })
		if p.Rows != len(rows) {
			t.Errorf("%s: Profile Rows %d, %d non-empty rows", name, p.Rows, len(rows))
		}
	}
}

// TestProfileInvariants checks the internal accounting: the byte
// partition sums to the ctl stream, every histogram totals the unit
// count, and the region breakdown covers all rows, units and non-zeros.
func TestProfileInvariants(t *testing.T) {
	for name, m := range profileMatrices(t) {
		p := m.Profile(8)
		if got := p.HeaderBytes + p.JumpBytes + p.DeltaBytes; got != p.CtlBytes {
			t.Errorf("%s: header %d + jump %d + delta %d = %d, want CtlBytes %d",
				name, p.HeaderBytes, p.JumpBytes, p.DeltaBytes, got, p.CtlBytes)
		}
		sum := func(h []int) int {
			n := 0
			for _, v := range h {
				n += v
			}
			return n
		}
		if got := sum(p.USizeHist); got != p.Units {
			t.Errorf("%s: usize hist total %d != units %d", name, got, p.Units)
		}
		if got := sum(p.UJmpWidthHist); got != p.Units {
			t.Errorf("%s: ujmp width hist total %d != units %d", name, got, p.Units)
		}
		if got := sum(p.RLERunHist); got != p.RLEUnits {
			t.Errorf("%s: rle run hist total %d != rle units %d", name, got, p.RLEUnits)
		}
		classTotal := 0
		for _, n := range p.PerClass {
			classTotal += n
		}
		if classTotal+p.RLEUnits != p.Units {
			t.Errorf("%s: class total %d + rle %d != units %d", name, classTotal, p.RLEUnits, p.Units)
		}

		var regUnits, regNNZ int
		var regClass [4]int
		for i, r := range p.Regions {
			if r.RowLo < 0 || r.RowHi > m.Rows() || r.RowLo > r.RowHi {
				t.Errorf("%s: region %d bad row range [%d,%d)", name, i, r.RowLo, r.RowHi)
			}
			for c, n := range r.PerClass {
				regClass[c] += n
				regUnits += n
			}
			regUnits += r.RLEUnits
			regNNZ += r.NNZ
		}
		if regUnits != p.Units {
			t.Errorf("%s: region unit total %d != units %d", name, regUnits, p.Units)
		}
		if regClass != p.PerClass {
			t.Errorf("%s: region class totals %v != PerClass %v", name, regClass, p.PerClass)
		}
		if regNNZ != m.NNZ() {
			t.Errorf("%s: region nnz total %d != nnz %d", name, regNNZ, m.NNZ())
		}
	}
}

// TestProfileNoRegions checks that nregions <= 0 disables the
// per-region breakdown and that an empty matrix profiles cleanly.
func TestProfileNoRegions(t *testing.T) {
	m, err := FromCOO(matgen.Stencil2D(20))
	if err != nil {
		t.Fatal(err)
	}
	if p := m.Profile(0); p.Regions != nil {
		t.Errorf("Profile(0) produced %d regions, want none", len(p.Regions))
	}
	empty, err := FromCOO(core.NewCOO(40, 40))
	if err != nil {
		t.Fatal(err)
	}
	p := empty.Profile(4)
	if p.Units != 0 || p.CtlBytes != 0 {
		t.Errorf("empty matrix profile: units=%d ctl=%d, want 0,0", p.Units, p.CtlBytes)
	}
}

func TestSizeBucket(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {128, 7}, {129, 8}, {255, 8},
	} {
		if got := sizeBucket(tc.n); got != tc.want {
			t.Errorf("sizeBucket(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}
