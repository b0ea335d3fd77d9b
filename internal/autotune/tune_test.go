package autotune

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"spmv/internal/formats"
	"spmv/internal/matgen"
	"spmv/internal/prof/archive"
	"spmv/internal/roofline"
)

// rec builds a synthetic archive cell with enough samples and spread
// for the Welch path.
func rec(matrix, format string, threads int, mean, stddev float64, gbps float64) archive.Record {
	return archive.Record{
		Name: archive.CellName(matrix, format, threads), Matrix: matrix,
		Format: format, Threads: threads, Iters: 10, Samples: 5,
		MeanSecs: mean, StddevSecs: stddev, BytesPerIter: 1 << 20, GBps: gbps,
	}
}

func TestPriorsBlendScores(t *testing.T) {
	// csr-du measured 2x the bandwidth of csr on this host, clearly
	// outside noise; csr-vi measured indistinguishable from csr.
	recs := []archive.Record{
		rec("m1", "csr", 2, 1.0e-3, 1e-5, 10),
		rec("m1", "csr-du", 2, 0.5e-3, 1e-5, 20),
		rec("m1", "csr-vi", 2, 1.0e-3, 1e-4, 10.01),
	}
	priors := loadPriors(recs, 2)
	if p, ok := priors["csr-du"]; !ok || !p.Significant {
		t.Fatalf("csr-du prior not significant: %+v", priors)
	}
	if p, ok := priors["csr-vi"]; ok && p.Significant {
		t.Fatalf("csr-vi prior should not be significant: %+v", p)
	}

	cands := []Candidate{
		{Spec: formats.Spec{Format: "csr-du"}, PredBytes: 1000, Feasible: true, Score: 1000},
		{Spec: formats.Spec{Format: "csr-vi"}, PredBytes: 900, Feasible: true, Score: 900},
	}
	applyPriors(cands, priors)
	if !cands[0].PriorSignificant || cands[0].Score >= 1000 {
		t.Errorf("significant 2x prior should halve csr-du's score: %+v", cands[0])
	}
	if cands[1].PriorSignificant || cands[1].Score != 900 {
		t.Errorf("insignificant prior must leave csr-vi untouched: %+v", cands[1])
	}
	// The blend flips the order: measured bandwidth outweighs the 10%
	// analytic size edge.
	rank(cands)
	if cands[0].Spec.Name() != "csr-du" {
		t.Errorf("prior-blended ranking should prefer csr-du, got %q", cands[0].Spec.Name())
	}
}

func TestPriorsMissingArchiveIsClean(t *testing.T) {
	c := matgen.Stencil2D(16)
	rep, err := Tune(c, Options{Threads: 1, ArchivePath: filepath.Join(t.TempDir(), "BENCH_none.json")})
	if err != nil {
		t.Fatalf("%v", err)
	}
	if rep.ArchiveNote != "" || rep.PriorsUsed {
		t.Errorf("missing archive should be silent: note=%q priors=%v", rep.ArchiveNote, rep.PriorsUsed)
	}
}

// TestProbeRefinement runs the measured stage end to end: the report
// carries probe timings, the winner is never Welch-significantly
// slower than the plain-CSR baseline, and the results land in the
// archive for the next run to use as priors.
func TestProbeRefinement(t *testing.T) {
	c := matgen.RandomUniform(rand.New(rand.NewSource(31)), 600, 600, 8, matgen.Values{})
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	rep, err := Tune(c, Options{
		Threads: 2, Budget: 300 * time.Millisecond, TopK: 2,
		ArchivePath: path, MatrixName: "probe-test",
	})
	if err != nil {
		t.Fatalf("%v", err)
	}
	if !rep.Probed || rep.ProbeIters < 1 {
		t.Fatalf("probe stage did not run: %+v", rep)
	}
	if !rep.Candidates[0].Probed {
		t.Errorf("winner was not probed")
	}
	if rep.VsCSR != nil && rep.VsCSR.Significant && rep.VsCSR.Delta > 0 {
		t.Errorf("probe-refined winner is Welch-significantly slower than csr: %+v", rep.VsCSR)
	}
	if rep.ArchiveNote != "" {
		t.Fatalf("archive write failed: %s", rep.ArchiveNote)
	}
	f, err := archive.Load(path)
	if err != nil {
		t.Fatalf("recorded archive: %v", err)
	}
	foundCSR := false
	for _, r := range f.Records {
		if r.Matrix != "probe-test" || r.Samples < 2 || r.MeanSecs <= 0 {
			t.Errorf("malformed probe record: %+v", r)
		}
		if r.Format == "csr" {
			foundCSR = true
		}
	}
	if len(f.Records) < 2 || !foundCSR {
		t.Errorf("expected >= 2 probe records including the csr baseline, got %+v", f.Records)
	}
}

// TestSymmetricMatrixPicksSymCSR pins the symmetry feature's payoff:
// on a numerically symmetric matrix with incompressible values, the
// halved off-diagonal storage wins.
func TestSymmetricMatrixPicksSymCSR(t *testing.T) {
	c := matgen.Symmetrize(matgen.RandomUniform(rand.New(rand.NewSource(51)), 800, 800, 9, matgen.Values{}))
	rep, err := Tune(c, Options{Threads: 2})
	if err != nil {
		t.Fatalf("%v", err)
	}
	if rep.Chosen.Name() != "sym-csr" {
		best := rep.Candidates[0]
		t.Errorf("symmetric matrix chose %q (pred %d); sym-csr should win", best.Spec.Name(), best.PredBytes)
	}
}

// specKey renders a Spec as a comparable ranking identity.
func specKey(s formats.Spec) string {
	return fmt.Sprintf("%s/%s/steal=%v", s.Name(), s.Partition, s.Steal)
}

// TestRooflinePriorKeepsRankingMonotonic pins that a roofline model
// restates scores as predicted seconds without changing the analytic
// ranking: same ordering, Score == PredSecs (prior-free), and the
// report carries the ceiling it normalized by.
func TestRooflinePriorKeepsRankingMonotonic(t *testing.T) {
	c := matgen.RandomUniform(rand.New(rand.NewSource(7)), 600, 600, 8, matgen.Values{})
	plain, err := Tune(c, Options{Threads: 2})
	if err != nil {
		t.Fatalf("plain: %v", err)
	}
	m := &roofline.Model{Source: roofline.SourceProbe, Host: "t", Ceilings: map[int]float64{2: 10}}
	roofed, err := Tune(c, Options{Threads: 2, Roofline: m})
	if err != nil {
		t.Fatalf("roofed: %v", err)
	}
	if roofed.CeilingGBps != 10 || roofed.RooflineSource != roofline.SourceProbe {
		t.Fatalf("report ceiling %v source %q", roofed.CeilingGBps, roofed.RooflineSource)
	}
	if specKey(roofed.Chosen) != specKey(plain.Chosen) {
		t.Fatalf("roofline prior changed the winner: %q vs %q", specKey(roofed.Chosen), specKey(plain.Chosen))
	}
	if len(roofed.Candidates) != len(plain.Candidates) {
		t.Fatalf("candidate counts differ")
	}
	for i := range roofed.Candidates {
		rc, pc := roofed.Candidates[i], plain.Candidates[i]
		if specKey(rc.Spec) != specKey(pc.Spec) {
			t.Fatalf("rank %d differs: %q vs %q", i, specKey(rc.Spec), specKey(pc.Spec))
		}
		if !rc.Feasible {
			continue
		}
		wantSecs := float64(rc.PredBytes) / 1e10
		if diff := rc.PredSecs - wantSecs; diff > 1e-15 || diff < -1e-15 {
			t.Errorf("%s: PredSecs %v, want %v", specKey(rc.Spec), rc.PredSecs, wantSecs)
		}
		if diff := rc.Score - wantSecs; diff > 1e-15 || diff < -1e-15 {
			t.Errorf("%s: Score %v not restated as seconds %v", specKey(rc.Spec), rc.Score, wantSecs)
		}
	}
}
