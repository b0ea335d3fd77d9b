package analyze

import (
	"math"
	"math/rand"
	"testing"

	"spmv/internal/core"
	"spmv/internal/csrdu"
	"spmv/internal/csrvi"
	"spmv/internal/matgen"
)

func TestAnalyzeStencil(t *testing.T) {
	n := 24
	c := matgen.Stencil2D(n)
	a := Analyze(c)
	if a.Rows != n*n || a.NNZ != c.Len() {
		t.Fatalf("shape: %+v", a)
	}
	if a.Unique != 2 || a.TTU != float64(a.NNZ)/2 {
		t.Errorf("unique=%d ttu=%v", a.Unique, a.TTU)
	}
	if a.Diagonals != 5 {
		t.Errorf("Diagonals = %d, want 5", a.Diagonals)
	}
	if a.Bandwidth != n {
		t.Errorf("Bandwidth = %d, want %d", a.Bandwidth, n)
	}
	if !a.Symmetric {
		t.Error("stencil not detected symmetric")
	}
	// Deltas within rows are 1 or n-ish: all fit u8 for n=24.
	if a.DeltaFrac[0] < 0.99 {
		t.Errorf("DeltaFrac = %v", a.DeltaFrac)
	}
}

func TestAnalyzeDeltaClasses(t *testing.T) {
	c := core.NewCOO(1, 1<<20)
	c.Add(0, 0, 1)
	c.Add(0, 10, 2)    // delta 10: u8
	c.Add(0, 1000, 3)  // delta 990: u16
	c.Add(0, 1<<19, 4) // delta ~523288: u32
	c.Finalize()
	a := Analyze(c)
	want := [4]float64{1.0 / 3, 1.0 / 3, 1.0 / 3, 0}
	for i := range want {
		if math.Abs(a.DeltaFrac[i]-want[i]) > 1e-12 {
			t.Fatalf("DeltaFrac = %v, want %v", a.DeltaFrac, want)
		}
	}
}

func TestAnalyzeEmptyAndRowStats(t *testing.T) {
	c := core.NewCOO(5, 5)
	c.Add(0, 0, 1)
	c.Add(0, 1, 1)
	c.Add(0, 2, 1)
	c.Add(4, 4, 1)
	c.Finalize()
	a := Analyze(c)
	if a.EmptyRows != 3 || a.MaxRowNNZ != 3 {
		t.Errorf("EmptyRows=%d MaxRowNNZ=%d", a.EmptyRows, a.MaxRowNNZ)
	}
	empty := core.NewCOO(3, 3)
	empty.Finalize()
	ae := Analyze(empty)
	if ae.TTU != 0 || len(ae.Recommend()) != 1 {
		t.Errorf("empty analysis: %+v", ae)
	}
}

func TestRecommendStencilPrefersCombined(t *testing.T) {
	c := matgen.Stencil2D(40)
	recs := Analyze(c).Recommend()
	if recs[0].Format != "csr-du-vi" {
		t.Errorf("top recommendation = %+v, want csr-du-vi", recs[0])
	}
	// All ratios sorted ascending.
	for i := 1; i < len(recs); i++ {
		if recs[i].Ratio < recs[i-1].Ratio {
			t.Error("recommendations not sorted")
		}
	}
	// CSR-VI must be present (ttu huge) and well under 1.
	found := false
	for _, r := range recs {
		if r.Format == "csr-vi" {
			found = true
			if r.Ratio > 0.6 {
				t.Errorf("csr-vi predicted ratio %v", r.Ratio)
			}
		}
	}
	if !found {
		t.Error("csr-vi not recommended for ttu>>5 matrix")
	}
}

func TestRecommendRandomSkipsVIAndCDS(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := matgen.RandomUniform(rng, 400, 1<<20, 6, matgen.Values{})
	recs := Analyze(c).Recommend()
	for _, r := range recs {
		// ELL is fine here (uniform rows); value indexing is not.
		if r.Format == "csr-vi" {
			t.Errorf("%s recommended for scattered unique-valued matrix", r.Format)
		}
	}
	// Skewed rows must disqualify ELLPACK.
	skew := matgen.PowerLaw(rng, 2000, 4, 1.1, matgen.Values{})
	for _, r := range Analyze(skew).Recommend() {
		if r.Format == "ell" {
			t.Error("ell recommended for power-law rows")
		}
	}
}

func TestPredictionsMatchRealEncoders(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	mats := map[string]*core.COO{
		"stencil":  matgen.Stencil2D(30),
		"banded-q": matgen.Banded(rng, 3000, 20, 8, matgen.Values{Unique: 32}),
		"femlike":  matgen.FEMLike(rng, 1500, 5, matgen.Values{Unique: 64}),
	}
	for name, c := range mats {
		a := Analyze(c)
		for _, r := range a.Recommend() {
			var real float64
			switch r.Format {
			case "csr-du":
				m, _ := csrdu.FromCOO(c)
				real = float64(m.SizeBytes())
			case "csr-vi":
				m, _ := csrvi.FromCOO(c)
				real = float64(m.SizeBytes())
			default:
				continue
			}
			base := float64(core.CSRBytes(a.Rows, a.NNZ, core.IdxSize, core.ValSize))
			realRatio := real / base
			if math.Abs(realRatio-r.Ratio) > 0.08 {
				t.Errorf("%s/%s: predicted ratio %.3f, real %.3f", name, r.Format, r.Ratio, realRatio)
			}
		}
	}
}

func TestSymmetryDetection(t *testing.T) {
	asym := core.NewCOO(3, 3)
	asym.Add(0, 1, 1)
	asym.Finalize()
	if Analyze(asym).Symmetric {
		t.Error("asymmetric detected symmetric")
	}
	rect := core.NewCOO(2, 3)
	rect.Add(0, 0, 1)
	rect.Finalize()
	if Analyze(rect).Symmetric {
		t.Error("rectangular detected symmetric")
	}
}

func TestPickFastestReturnsMeasurements(t *testing.T) {
	c := matgen.Stencil2D(24)
	best, timings, err := PickFastest(c, []string{"csr", "csr-du", "csr-vi"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if best == "" {
		t.Fatal("no winner")
	}
	if len(timings) != 3 {
		t.Fatalf("timings = %d", len(timings))
	}
	for _, tm := range timings {
		if tm.Err == nil && (tm.PerSpMV <= 0 || tm.Size <= 0) {
			t.Errorf("%s: empty measurement %+v", tm.Format, tm)
		}
	}
}

func TestPickFastestDefaultsToRecommendations(t *testing.T) {
	c := matgen.Stencil2D(16)
	best, timings, err := PickFastest(c, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if best == "" || len(timings) == 0 {
		t.Fatalf("best=%q timings=%d", best, len(timings))
	}
}

func TestPickFastestSkipsRefusingFormats(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	skew := matgen.PowerLaw(rng, 1500, 4, 1.2, matgen.Values{})
	best, timings, err := PickFastest(skew, []string{"ell", "csr"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if best != "csr" {
		t.Errorf("best = %q, want csr (ell must refuse)", best)
	}
	if timings[0].Err == nil {
		t.Error("ell should have errored on skewed matrix")
	}
}
