package spmv_test

import (
	"encoding/json"
	"errors"
	"math/rand"
	"testing"
	"time"

	"spmv"
	"spmv/internal/matgen"
)

// TestConstructorsDelegateToBuild pins the constructor consolidation:
// every deprecated NewXxx wrapper must produce a matrix identical (name
// and working-set bytes) to the Build call its docs point at, and the
// parameterized survivors must keep honoring their extra knobs.
func TestConstructorsDelegateToBuild(t *testing.T) {
	c, _ := laplacian2D(10)
	viaNew := map[string]func() (spmv.Format, error){
		"csr":       func() (spmv.Format, error) { return spmv.NewCSR(c) },
		"csr16":     func() (spmv.Format, error) { return spmv.NewCSR16(c) },
		"csr-du":    func() (spmv.Format, error) { return spmv.NewCSRDU(c) },
		"csr-vi":    func() (spmv.Format, error) { return spmv.NewCSRVI(c) },
		"csr-du-vi": func() (spmv.Format, error) { return spmv.NewCSRDUVI(c) },
		"dcsr":      func() (spmv.Format, error) { return spmv.NewDCSR(c) },
		"csc":       func() (spmv.Format, error) { return spmv.NewCSC(c) },
		"csr32":     func() (spmv.Format, error) { return spmv.NewCSR32(c) },
		"ell":       func() (spmv.Format, error) { return spmv.NewELL(c) },
	}
	for name, ctor := range viaNew {
		a, err := ctor()
		if err != nil {
			t.Errorf("%s: constructor: %v", name, err)
			continue
		}
		b, err := spmv.Build(c, spmv.WithFormat(name))
		if err != nil {
			t.Errorf("%s: Build: %v", name, err)
			continue
		}
		if a.Name() != b.Name() || a.SizeBytes() != b.SizeBytes() {
			t.Errorf("%s: constructor (%s, %d bytes) != Build (%s, %d bytes)",
				name, a.Name(), a.SizeBytes(), b.Name(), b.SizeBytes())
		}
	}

	// The options-carrying delegate: NewCSRDUOpts == Build + WithDUOptions.
	o := spmv.DUOptions{RLE: true}
	a, err := spmv.NewCSRDUOpts(c, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := spmv.Build(c, spmv.WithFormat("csr-du"), spmv.WithDUOptions(o))
	if err != nil {
		t.Fatal(err)
	}
	if a.SizeBytes() != b.SizeBytes() {
		t.Errorf("NewCSRDUOpts %d bytes != Build+WithDUOptions %d bytes", a.SizeBytes(), b.SizeBytes())
	}

	// BuildFormat delegates too.
	f, err := spmv.BuildFormat("csr-du", c)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "csr-du" {
		t.Errorf("BuildFormat built %q", f.Name())
	}
}

// autoShapes are the ISSUE acceptance shapes, generated through the
// same matgen entry points as the internal table test.
func autoShapes() map[string]*spmv.COO {
	return map[string]*spmv.COO{
		"dense-blocks": matgen.BlockDiag(rand.New(rand.NewSource(21)), 96, 4, matgen.Values{}),
		"skewed-rows":  matgen.SkewedRows(rand.New(rand.NewSource(22)), 2000, 4, 17, 0.4, matgen.Values{}),
		"few-unique": matgen.Quantize(
			matgen.RandomUniform(rand.New(rand.NewSource(23)), 1200, 1200, 9, matgen.Values{}),
			rand.New(rand.NewSource(24)), 30),
		"wide-random": matgen.RandomUniform(rand.New(rand.NewSource(25)), 1500, 1<<17, 8, matgen.Values{}),
	}
}

// TestWithAutoFormatPublic is the acceptance criterion through the
// public API: for each shape, Build(WithAutoFormat) must verify, match
// the COO reference product, report its decision, and predict within 5%
// of the true registry minimum bytes-per-SpMV.
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
		if rep.Chosen.Format == "" && rep.Chosen.Name() != "csr" {
			t.Errorf("%s: report carries no chosen spec", name)
		}
		if len(rep.Candidates) == 0 || rep.ChosenPredBytes <= 0 {
			t.Errorf("%s: report incomplete: %d candidates, %d pred bytes",
				name, len(rep.Candidates), rep.ChosenPredBytes)
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
		if back.Chosen.Name() != rep.Chosen.Name() {
			t.Errorf("%s: report did not round-trip JSON", name)
		}

		// Product correctness against the triplet reference.
		x := make([]float64, c.Cols())
		for i := range x {
			x[i] = float64(i%11) - 5
		}
		got := make([]float64, c.Rows())
		m.SpMV(got, x)
		want := make([]float64, c.Rows())
		c.SpMV(want, x)
		for i := range want {
			d := got[i] - want[i]
			if d < 0 {
				d = -d
			}
			lim := want[i]
			if lim < 0 {
				lim = -lim
			}
			if d > 1e-9*(1+lim) {
				t.Fatalf("%s: row %d = %v, want %v", name, i, got[i], want[i])
			}
		}

		// 5% acceptance vs the true registry minimum.
		var trueMin int64 = -1
		for _, fname := range spmv.FormatNames() {
			if fname == "csr32" && !rep.Features.Lossless32 {
				continue
			}
			f, err := spmv.Build(c, spmv.WithFormat(fname))
			if err != nil {
				continue
			}
			if b := spmv.BytesPerSpMV(f); trueMin < 0 || b < trueMin {
				trueMin = b
			}
		}
		if float64(rep.ChosenPredBytes) > 1.05*float64(trueMin) {
			t.Errorf("%s: chose %q at %d predicted bytes/SpMV; true minimum %d (>5%% off)",
				name, rep.Chosen.Name(), rep.ChosenPredBytes, trueMin)
		}
	}
}

// TestWithAutoBudgetPublic smokes the probe-refined path end to end
// through the public API.
func TestWithAutoBudgetPublic(t *testing.T) {
	c := matgen.RandomUniform(rand.New(rand.NewSource(33)), 500, 500, 8, matgen.Values{})
	var rep spmv.TuneReport
	m, err := spmv.Build(c, spmv.WithAutoBudget(200*time.Millisecond), spmv.WithTuneReport(&rep))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Probed {
		t.Error("WithAutoBudget did not run the probe stage")
	}
	if err := spmv.Verify(m); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.VsCSR != nil && rep.VsCSR.Significant && rep.VsCSR.Delta > 0 {
		t.Errorf("probe-refined choice significantly slower than csr: %+v", rep.VsCSR)
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
