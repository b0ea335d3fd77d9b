package spmv_test

import (
	"bytes"
	"math/rand"
	"testing"

	"spmv"
	"spmv/internal/matgen"
	"spmv/internal/testmat"
)

func TestAnalyzeAndRecommendPublic(t *testing.T) {
	c := matgen.Stencil2D(20)
	a := spmv.Analyze(c)
	if a.TTU <= 5 || !a.Symmetric || a.Diagonals != 5 {
		t.Fatalf("analysis: %+v", a)
	}
	recs := a.Recommend()
	if len(recs) < 4 {
		t.Fatalf("recommendations: %v", recs)
	}
	if recs[0].Ratio >= 1 {
		t.Errorf("top recommendation does not compress: %+v", recs[0])
	}
}

func TestRCMPublicFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := matgen.Symmetrize(matgen.Banded(rng, 200, 5, 4, matgen.Values{}))
	// Shuffle, then recover with RCM.
	perm := make([]int32, 200)
	for i := range perm {
		perm[i] = int32(i)
	}
	rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
	mess, err := spmv.PermuteMatrix(c, perm)
	if err != nil {
		t.Fatal(err)
	}
	rcm, err := spmv.RCM(mess)
	if err != nil {
		t.Fatal(err)
	}
	tidy, _ := spmv.PermuteMatrix(mess, rcm)
	if spmv.Bandwidth(tidy) >= spmv.Bandwidth(mess) {
		t.Errorf("bandwidth %d -> %d", spmv.Bandwidth(mess), spmv.Bandwidth(tidy))
	}
	// Vector round trip.
	x := testmat.RandVec(rng, 200)
	back := spmv.UnpermuteVec(spmv.PermuteVec(x, rcm), rcm)
	testmat.AssertClose(t, "perm roundtrip", back, x, 0)
}

func TestMixedPrecisionPublicFlow(t *testing.T) {
	c := matgen.Stencil2D(10)
	full, _ := spmv.NewCSR(c)
	low, err := spmv.NewCSR32(c)
	if err != nil {
		t.Fatal(err)
	}
	if low.SizeBytes() >= full.SizeBytes() {
		t.Error("csr32 not smaller than csr")
	}
	opF, _ := spmv.NewOperator(full)
	opL, _ := spmv.NewOperator(low)
	b := make([]float64, opF.N)
	b[0] = 1
	x := make([]float64, opF.N)
	res, err := spmv.Refine(opF, opL, b, x, 1e-11, 50, 1000)
	if err != nil || !res.Converged {
		t.Fatalf("refine: %v %+v", err, res)
	}
}

func TestBiCGSTABPublic(t *testing.T) {
	c := matgen.Stencil2D(8)
	ns := spmv.NewCOO(c.Rows(), c.Cols())
	for k := 0; k < c.Len(); k++ {
		i, j, v := c.At(k)
		if j == i+1 {
			v += 0.3
		}
		ns.Add(i, j, v)
	}
	f, _ := spmv.NewCSR(ns)
	op, _ := spmv.NewOperator(f)
	b := make([]float64, op.N)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, op.N)
	res, err := spmv.BiCGSTAB(op, b, x, 1e-9, 5000)
	if err != nil || !res.Converged {
		t.Fatalf("bicgstab: %v %+v", err, res)
	}
}

func TestMatfilePublic(t *testing.T) {
	c := matgen.Stencil2D(8)
	m, _ := spmv.NewCSRDU(c)
	var buf bytes.Buffer
	if err := spmv.WriteMatrix(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := spmv.ReadMatrix(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != m.NNZ() || back.Name() != "csr-du" {
		t.Errorf("read back %s/%d", back.Name(), back.NNZ())
	}
}

// TestProfilePublic exercises the profiling exports: the stream split
// reconciles with the traffic model and a measured attribution divides
// the bandwidth across streams.
func TestProfilePublic(t *testing.T) {
	c := matgen.Stencil2D(30)
	f, err := spmv.BuildFormat("csr-du", c)
	if err != nil {
		t.Fatal(err)
	}
	p := spmv.Profile(f)
	var sum int64
	for _, s := range p.Streams {
		sum += s.Bytes
	}
	if sum != spmv.BytesPerSpMV(f) {
		t.Errorf("stream bytes %d != BytesPerSpMV %d", sum, spmv.BytesPerSpMV(f))
	}
	if p.DU == nil || p.DU.Units == 0 {
		t.Error("csr-du profile missing unit statistics")
	}
	a := spmv.AttributeBandwidth(p, 1e-3, nil)
	if a.GBps <= 0 || len(a.Streams) != len(p.Streams) {
		t.Errorf("attribution: %+v", a)
	}

	series := spmv.NewProfileSeries(4)
	r, err := spmv.NewExecutorOpts(f, spmv.ExecOptions{Threads: 2, Collector: series})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	y := make([]float64, f.Rows())
	x := make([]float64, f.Cols())
	for i := 0; i < 3; i++ {
		if err := r.Run(y, x); err != nil {
			t.Fatal(err)
		}
	}
	doc := series.Doc()
	if doc.Summary.Runs != 3 {
		t.Errorf("series runs = %d, want 3", doc.Summary.Runs)
	}
}
