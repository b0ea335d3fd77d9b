package autotune

import (
	"encoding/json"
	"math/rand"
	"testing"

	"spmv/internal/core"
	"spmv/internal/formats"
	"spmv/internal/matgen"
	"spmv/internal/obs"
	"spmv/internal/parallel"
	"spmv/internal/testmat"
)

// exactFormats are the registry formats PredictBytes claims exact
// formulas for; the test pins each claim against the real builder.
var exactFormats = []string{
	"csr", "csr16", "csr32", "csr-du", "csr-vi",
	"csr-du-vi", "csc", "ell", "sym-csr",
}

// TestPredictBytesExact verifies that every prediction marked Exact
// equals the built format's actual traffic, byte for byte.
func TestPredictBytesExact(t *testing.T) {
	all := shapes()
	all["symmetric"] = matgen.Symmetrize(matgen.Banded(rand.New(rand.NewSource(9)), 300, 6, 5, matgen.Values{}))
	for name, c := range all {
		ft := Extract(c)
		for _, fname := range exactFormats {
			pred, exact, feasible, _ := PredictBytes(ft, formats.Spec{Format: fname})
			if !feasible {
				// The builder must agree the format is inapplicable —
				// except where the model is deliberately stricter
				// (csr32 requires lossless values; the builder rounds).
				if fname == "csr32" {
					continue
				}
				if _, err := formats.Build(fname, c); err == nil {
					t.Errorf("%s/%s: predicted infeasible but builder succeeded", name, fname)
				}
				continue
			}
			if !exact {
				t.Errorf("%s/%s: exact format reported estimated", name, fname)
				continue
			}
			f, err := formats.Build(fname, c)
			if err != nil {
				t.Errorf("%s/%s: predicted feasible but build failed: %v", name, fname, err)
				continue
			}
			if got := obs.BytesPerSpMV(f); got != pred {
				t.Errorf("%s/%s: predicted %d bytes/SpMV, actual %d", name, fname, pred, got)
			}
		}
	}
}

// TestPredictBytesFollowsValueCodec pins the predicted storage bytes of
// the value-indexed formats to the built matrices' SizeBytes on the
// encoder test matrices, where some take the dictionary codec and some
// the plain one, and checks that Candidates offers csr-du-vi exactly
// where it would build a dictionary.
func TestPredictBytesFollowsValueCodec(t *testing.T) {
	codecs := map[bool]int{}
	for _, tc := range testmat.EncoderCases() {
		ft := Extract(tc.COO)
		vec := core.VectorBytes(ft.Rows, ft.Cols, core.ValSize)
		var dict bool
		for _, name := range []string{"csr-vi", "csr-du-vi"} {
			pred, exact, _, _ := PredictBytes(ft, formats.Spec{Format: name})
			f, err := formats.Build(name, tc.COO)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.Name, name, err)
			}
			if !exact || pred-vec != f.SizeBytes() {
				t.Errorf("%s/%s: predicted %d storage bytes (exact %v), built %d",
					tc.Name, name, pred-vec, exact, f.SizeBytes())
			}
			dict = f.Name() == "csr-du-vi"
		}
		codecs[dict]++
		offered := false
		for _, c := range Candidates(ft) {
			offered = offered || c.Spec.Format == "csr-du-vi"
		}
		if offered != dict {
			t.Errorf("%s: csr-du-vi offered %v, builds a dictionary %v", tc.Name, offered, dict)
		}
	}
	if codecs[true] == 0 || codecs[false] == 0 {
		t.Errorf("codecs built %v, want both the dictionary and the plain codec", codecs)
	}
}

// tableShape is one row of the ISSUE's predicted-best table: a
// generator with a known structural story and the formats/scheduling
// the tuner must land on.
func tableShapes() []struct {
	name        string
	gen         func() *core.COO
	wantFormats map[string]bool // acceptable chosen formats
} {
	return []struct {
		name        string
		gen         func() *core.COO
		wantFormats map[string]bool
	}{
		{
			// Dense diagonal blocks: every intra-row gap is 1, so the
			// column deltas fit one byte — CSR-DU territory. Block size
			// 4 keeps the unit-stride runs below the RLE threshold.
			name:        "dense-blocks",
			gen:         func() *core.COO { return matgen.BlockDiag(rand.New(rand.NewSource(21)), 96, 4, matgen.Values{}) },
			wantFormats: map[string]bool{"csr-du": true},
		},
		{
			// One row holds 40% of the non-zeros: the format barely
			// matters, the nnz-balanced partition does.
			name: "skewed-rows",
			gen: func() *core.COO {
				return matgen.SkewedRows(rand.New(rand.NewSource(22)), 2000, 4, 17, 0.4, matgen.Values{})
			},
			wantFormats: map[string]bool{"csr-du": true, "csr": true, "csr16": true},
		},
		{
			// 30 distinct values: the value stream collapses to a
			// 1-byte dictionary index — the paper's CSR-VI case.
			name: "few-unique",
			gen: func() *core.COO {
				base := matgen.RandomUniform(rand.New(rand.NewSource(23)), 1200, 1200, 9, matgen.Values{})
				return matgen.Quantize(base, rand.New(rand.NewSource(24)), 30)
			},
			wantFormats: map[string]bool{"csr-vi": true, "csr-du-vi": true},
		},
		{
			// Wide random pattern, fresh values: only the column deltas
			// compress — the paper's CSR-DU case.
			name: "wide-random",
			gen: func() *core.COO {
				return matgen.RandomUniform(rand.New(rand.NewSource(25)), 1500, 1<<17, 8, matgen.Values{})
			},
			wantFormats: map[string]bool{"csr-du": true},
		},
	}
}

// TestPredictedBestShapes is the satellite table test: for each known
// synthetic shape the analytic ranking must land in the expected
// format family, the chosen spec's scheduler hints must start an
// executor for the built format, and — the acceptance criterion — the
// chosen format's analytic bytes-per-SpMV must be within 5% of the
// true minimum over everything the registry can build.
func TestPredictedBestShapes(t *testing.T) {
	for _, tc := range tableShapes() {
		c := tc.gen()
		rep, err := Tune(c, Options{Threads: 2})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !tc.wantFormats[rep.Chosen.Name()] {
			t.Errorf("%s: chose %q, want one of %v", tc.name, rep.Chosen.Name(), tc.wantFormats)
		}
		f, err := Build(c, rep.Chosen)
		if err != nil {
			t.Fatalf("%s: build %q: %v", tc.name, rep.Chosen.Name(), err)
		}
		run, err := parallel.New(f, parallel.ExecOptions{
			Threads: 2, Partition: rep.Chosen.Partition, Steal: rep.Chosen.Steal})
		if err != nil {
			t.Errorf("%s: chosen spec %+v does not start: %v", tc.name, rep.Chosen, err)
		} else {
			run.Close()
		}

		// True minimum bytes-per-SpMV over every buildable registry
		// format that computes the same product: lossy csr32 only
		// competes when the values survive float32 round-tripping.
		var trueMin int64 = -1
		for _, fname := range formats.Names() {
			if fname == "csr32" && !rep.Features.Lossless32 {
				continue
			}
			f, err := formats.Build(fname, c)
			if err != nil {
				continue
			}
			if b := obs.BytesPerSpMV(f); trueMin < 0 || b < trueMin {
				trueMin = b
			}
		}
		if trueMin <= 0 {
			t.Fatalf("%s: no registry format built", tc.name)
		}
		if float64(rep.ChosenPredBytes) > 1.05*float64(trueMin) {
			t.Errorf("%s: chosen %q predicts %d bytes/SpMV, true registry minimum is %d (>5%% off)",
				tc.name, rep.Chosen.Name(), rep.ChosenPredBytes, trueMin)
		}
	}
}

// TestAnalyticRankingDeterministic runs the no-probe tuner twice over
// every shape and requires bit-identical serialized reports.
func TestAnalyticRankingDeterministic(t *testing.T) {
	for name, c := range shapes() {
		rep1, err := Tune(c, Options{Threads: 4})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep2, err := Tune(c, Options{Threads: 4})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		j1, err := json.Marshal(rep1)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		j2, err := json.Marshal(rep2)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		if string(j1) != string(j2) {
			t.Errorf("%s: analytic ranking not bit-stable:\n%s\n%s", name, j1, j2)
		}
	}
}

// TestCandidatesAlwaysRankCSR makes sure the fallback invariant holds:
// whatever the features, plain CSR (possibly with a scheduling hint)
// stays feasible, so Tune can never come back empty.
func TestCandidatesAlwaysRankCSR(t *testing.T) {
	c := core.NewCOO(3, 3)
	c.Add(0, 0, 1)
	c.Finalize()
	rep, err := Tune(c, Options{Threads: 1})
	if err != nil {
		t.Fatalf("tiny matrix: %v", err)
	}
	if rep.Chosen.Name() == "" {
		t.Fatalf("no chosen spec")
	}
}
