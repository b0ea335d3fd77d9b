package sym

import (
	"math/rand"
	"testing"

	"spmv/internal/core"
	"spmv/internal/csr"
	"spmv/internal/matgen"
	"spmv/internal/parallel"
	"spmv/internal/testmat"
)

func symCorpus(t *testing.T) map[string]*core.COO {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	return map[string]*core.COO{
		"stencil": matgen.Stencil2D(14),
		"femlike": matgen.Symmetrize(matgen.FEMLike(rng, 250, 5, matgen.Values{})),
		"banded":  matgen.Symmetrize(matgen.Banded(rng, 300, 8, 6, matgen.Values{})),
		"diag":    diagCOO(20),
	}
}

func diagCOO(n int) *core.COO {
	c := core.NewCOO(n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, float64(i+1))
	}
	c.Finalize()
	return c
}

func TestSpMVMatchesCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for name, c := range symCorpus(t) {
		m, err := FromCOO(c, 1e-12)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref, _ := csr.FromCOO(c)
		x := testmat.RandVec(rng, c.Cols())
		y1 := make([]float64, c.Rows())
		y2 := make([]float64, c.Rows())
		m.SpMV(y1, x)
		ref.SpMV(y2, x)
		testmat.AssertClose(t, name, y1, y2, 1e-10)
		if m.NNZ() != c.Len() {
			t.Errorf("%s: NNZ = %d, want %d", name, m.NNZ(), c.Len())
		}
	}
}

func TestHalvesStorage(t *testing.T) {
	c := matgen.Stencil2D(40)
	m, err := FromCOO(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := csr.FromCOO(c)
	ratio := float64(m.SizeBytes()) / float64(ref.SizeBytes())
	// Diagonal kept in full, off-diagonals halved: ratio ~ 0.55-0.65.
	if ratio > 0.70 {
		t.Errorf("sym/csr size ratio = %v, want < 0.70", ratio)
	}
	if m.Stored() >= m.NNZ() {
		t.Errorf("Stored = %d not below logical %d", m.Stored(), m.NNZ())
	}
}

func TestRejectsAsymmetric(t *testing.T) {
	c := core.NewCOO(3, 3)
	c.Add(0, 1, 1)
	c.Add(1, 0, 2) // value mismatch
	c.Finalize()
	if _, err := FromCOO(c, 1e-12); err == nil {
		t.Error("asymmetric values accepted")
	}
	p := core.NewCOO(3, 3)
	p.Add(0, 2, 1) // no mirror at all
	p.Finalize()
	if _, err := FromCOO(p, 1e-12); err == nil {
		t.Error("asymmetric pattern accepted")
	}
	r := core.NewCOO(2, 3)
	r.Finalize()
	if _, err := FromCOO(r, 0); err == nil {
		t.Error("rectangular accepted")
	}
}

func TestToleranceAllowsRounding(t *testing.T) {
	c := core.NewCOO(2, 2)
	c.Add(0, 1, 1.0)
	c.Add(1, 0, 1.0+1e-14)
	c.Finalize()
	if _, err := FromCOO(c, 1e-12); err != nil {
		t.Errorf("tiny asymmetry rejected: %v", err)
	}
	if _, err := FromCOO(c, 0); err == nil {
		t.Error("exact mode accepted rounding")
	}
}

// TestParallelViaNew runs sym-csr through parallel.New, which starts
// the tree-reducing SymExecutor for it.
func TestParallelViaNew(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := matgen.Symmetrize(matgen.FEMLike(rng, 400, 5, matgen.Values{}))
	m, err := FromCOO(c, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, c.Rows())
	x := testmat.RandVec(rng, c.Cols())
	m.SpMV(want, x)
	for _, threads := range []int{1, 2, 4, 8} {
		e, err := parallel.New(m, parallel.ExecOptions{Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		y := make([]float64, c.Rows())
		e.Run(y, x)
		testmat.AssertClose(t, "sym parallel", y, want, 1e-10)
		e.Close()
	}
}

func TestChunksCoverStoredWork(t *testing.T) {
	c := matgen.Stencil2D(12)
	m, _ := FromCOO(c, 0)
	chunks := m.SplitScatter(4)
	total := 0
	for _, ch := range chunks {
		total += ch.NNZ()
	}
	// Each stored off-diagonal counts twice plus one per diagonal row.
	want := 2*len(m.Values) + m.Rows()
	if total != want {
		t.Errorf("chunk weights sum to %d, want %d", total, want)
	}
}

// TestToleranceSymmetricInArguments pins the satellite bugfix: the
// check scaled the tolerance by |v1| only, so a borderline pair passed
// or failed depending on which triangle held the larger value — the
// same matrix could be accepted via one entry and rejected via its
// mirror. The fixed check scales by max(|v1|, |v2|) and is symmetric.
func TestToleranceSymmetricInArguments(t *testing.T) {
	// diff = 1.15, tol = 0.1: tol*(1+min) = 1.1 < diff <= tol*(1+max)
	// = 1.215. The old check rejected the pair when iterating from the
	// smaller side; the symmetric check accepts it both ways.
	build := func(a, b float64) *core.COO {
		c := core.NewCOO(2, 2)
		c.Add(0, 1, a)
		c.Add(1, 0, b)
		c.Finalize()
		return c
	}
	const tol = 0.1
	if _, err := FromCOO(build(10, 11.15), tol); err != nil {
		t.Errorf("within-tolerance pair rejected: %v", err)
	}
	if _, err := FromCOO(build(11.15, 10), tol); err != nil {
		t.Errorf("swapped within-tolerance pair rejected: %v", err)
	}
	// Outside tol*(1+max) must still fail, from either side.
	if _, err := FromCOO(build(10, 11.25), tol); err == nil {
		t.Error("out-of-tolerance pair accepted")
	}
	if _, err := FromCOO(build(11.25, 10), tol); err == nil {
		t.Error("swapped out-of-tolerance pair accepted")
	}
}

// TestSymExecutorMatchesSerial checks the tree-reduced parallel kernel
// against the serial one on the whole corpus.
func TestSymExecutorMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for name, c := range symCorpus(t) {
		m, err := FromCOO(c, 1e-12)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := make([]float64, c.Rows())
		x := testmat.RandVec(rng, c.Cols())
		m.SpMV(want, x)
		for _, threads := range []int{1, 2, 3, 4, 5, 8} {
			e, err := parallel.NewSymExecutor(m, threads)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, threads, err)
			}
			y := make([]float64, c.Rows())
			for iter := 0; iter < 2; iter++ {
				if err := e.Run(y, x); err != nil {
					t.Fatalf("%s/%d: %v", name, threads, err)
				}
				testmat.AssertClose(t, name, y, want, 1e-10)
			}
			e.Close()
		}
	}
}

// TestSymExecutorBitwise checks the acceptance criterion: on an
// integer-valued matrix (stencil values {4, -1}) with small-integer x,
// every floating-point sum is exact, so association order cannot show
// — any numeric difference between the tree-reduced parallel kernel
// and the serial kernel would be a real indexing or ownership bug.
// Each thread count must reproduce the serial result bit for bit.
func TestSymExecutorBitwise(t *testing.T) {
	c := matgen.Stencil2D(18)
	m, err := FromCOO(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	x := make([]float64, c.Cols())
	for i := range x {
		x[i] = float64(rng.Intn(17) - 8)
	}
	want := make([]float64, c.Rows())
	m.SpMV(want, x)
	for _, threads := range []int{1, 2, 3, 4, 6, 8, 9} {
		e, err := parallel.NewSymExecutor(m, threads)
		if err != nil {
			t.Fatal(err)
		}
		y := make([]float64, c.Rows())
		if err := e.Run(y, x); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if y[i] != want[i] {
				t.Fatalf("threads=%d: y[%d] = %v, serial %v (bitwise mismatch)",
					threads, i, y[i], want[i])
			}
		}
		e.Close()
	}
}
