package spmv_test

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"testing"

	"spmv"
	"spmv/internal/matgen"
	"spmv/internal/testmat"
)

// autoShapes are matrices of distinct structure, generated through the
// matgen entry points; symmetric is the one sym-csr can take.
func autoShapes() map[string]*spmv.COO {
	return map[string]*spmv.COO{
		"dense-blocks": matgen.BlockDiag(rand.New(rand.NewSource(21)), 96, 4, matgen.Values{}),
		"skewed-rows":  matgen.SkewedRows(rand.New(rand.NewSource(22)), 2000, 4, 17, 0.4, matgen.Values{}),
		"few-unique": matgen.Quantize(
			matgen.RandomUniform(rand.New(rand.NewSource(23)), 1200, 1200, 9, matgen.Values{}),
			rand.New(rand.NewSource(24)), 30),
		"wide-random": matgen.RandomUniform(rand.New(rand.NewSource(25)), 1500, 1<<17, 8, matgen.Values{}),
		"symmetric":   matgen.Symmetrize(matgen.RandomUniform(rand.New(rand.NewSource(26)), 800, 800, 9, matgen.Values{})),
	}
}

// TestWithAutoFormatPublic is the acceptance criterion through the
// public API: for each shape, Build(WithAutoFormat) must verify, report
// the format it built with what it measured, and multiply like CSR.
func TestWithAutoFormatPublic(t *testing.T) {
	for name, c := range autoShapes() {
		var rep spmv.TuneReport
		m, err := spmv.Build(c, spmv.WithAutoFormat(), spmv.WithTuneReport(&rep))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := spmv.Verify(m); err != nil {
			t.Fatalf("%s: Verify: %v", name, err)
		}
		ch := rep.Choice()
		t.Logf("%s: chose %s at %.3f of csr", name, ch.Spec.Name(), ch.Ratio)
		if ch.Spec.Name() != m.Name() || ch.Reason != "" || ch.Bytes != m.SizeBytes() || ch.NsPerNNZ <= 0 || ch.Samples == 0 {
			t.Errorf("%s: built %s, report's choice %+v", name, m.Name(), ch)
		}
		if len(rep.Candidates) < 4 || rep.Candidates[0].Spec.Name() != "csr" {
			t.Errorf("%s: candidates %+v", name, rep.Candidates)
		}

		// The report is a serializable decision trace.
		blob, err := json.Marshal(&rep)
		if err != nil {
			t.Fatalf("%s: marshal report: %v", name, err)
		}
		var back spmv.TuneReport
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("%s: unmarshal report: %v", name, err)
		}
		if back.Chosen.Name() != rep.Chosen.Name() || len(back.Candidates) != len(rep.Candidates) {
			t.Errorf("%s: report did not round-trip JSON", name)
		}

		checkLikeCSR(t, name, m, c)
		if name == "symmetric" { // the sym-csr bound, whatever the tuner chose
			sym, err := spmv.Build(c, spmv.WithFormat("sym-csr"))
			if err != nil {
				t.Fatal(err)
			}
			checkLikeCSR(t, name, sym, c)
		}
	}
}

// checkLikeCSR checks m*x against testmat.Reference of c's CSR: bitwise
// for the row formats, which sum each row in CSR's order, and within
// n*eps*(|A||x|)_i for sym-csr, which does not.
func checkLikeCSR(t *testing.T, name string, m spmv.Format, c *spmv.COO) {
	t.Helper()
	ref, err := spmv.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	rm := ref.(testmat.RowMajor)
	x := testmat.RandVec(rand.New(rand.NewSource(5)), c.Cols())
	want := testmat.Reference(rm)(x, 1)
	got := make([]float64, c.Rows())
	m.SpMV(got, x)
	if m.Name() != "sym-csr" {
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: %s row %d = %v, want %v bitwise", name, m.Name(), i, got[i], want[i])
			}
		}
		return
	}
	absAx := make([]float64, c.Rows())
	rm.ForEach(func(i, j int, v float64) { absAx[i] += math.Abs(v * x[j]) })
	eps := math.Nextafter(1, 2) - 1
	for i := range want {
		if d := math.Abs(got[i] - want[i]); d > float64(c.Cols())*eps*absAx[i] {
			t.Fatalf("%s: sym-csr row %d = %v, want %v (|A||x| = %v)", name, i, got[i], want[i], absAx[i])
		}
	}
}

// TestAutoFormatConflict pins the option conflict as a usage error.
func TestAutoFormatConflict(t *testing.T) {
	c, _ := laplacian2D(4)
	_, err := spmv.Build(c, spmv.WithFormat("csr"), spmv.WithAutoFormat())
	if !errors.Is(err, spmv.ErrUsage) {
		t.Fatalf("WithFormat+WithAutoFormat: got %v, want ErrUsage", err)
	}
}
