package simtrace

import (
	"math/rand"
	"testing"

	"spmv/internal/core"
	"spmv/internal/csr"
	"spmv/internal/csrdu"
	"spmv/internal/matgen"
	"spmv/internal/memsim"
	"spmv/internal/sym"
)

func TestCollectSplitsWork(t *testing.T) {
	c := matgen.Stencil2D(32)
	f, _ := csr.FromCOO(c)
	traces, err := Collect(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 4 {
		t.Fatalf("traces = %d", len(traces))
	}
	total := 0
	for i, tr := range traces {
		if len(tr) == 0 {
			t.Errorf("trace %d empty", i)
		}
		total += len(tr)
	}
	// At least one access per nnz (the x gathers).
	if total < f.NNZ() {
		t.Errorf("total accesses %d < nnz %d", total, f.NNZ())
	}
}

func TestCollectRejectsUntraceable(t *testing.T) {
	c := matgen.Stencil2D(8)
	f, _ := sym.FromCOO(c, 1e-12)
	if _, err := Collect(f, 2); err == nil {
		t.Error("sym-csr accepted (no Placer)")
	}
}

func TestCompressedFormatsMoveFewerBytes(t *testing.T) {
	// The core of the paper: CSR-DU and CSR-VI fetch fewer memory lines
	// than CSR for the same multiply.
	rng := rand.New(rand.NewSource(1))
	c := matgen.Banded(rng, 60000, 60, 16, matgen.Values{Unique: 32})
	m := memsim.Clovertown()

	lines := func(f core.Format) uint64 {
		r, err := SimulateSpMV(m, f, 1, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		return r.MemLines
	}
	base := lines(mustF(csr.FromCOO(c)))
	du := lines(mustF(csrdu.FromCOO(c)))
	vi := lines(mustF(csr.FromCOOVI(c)))
	if du >= base {
		t.Errorf("csr-du moved %d lines vs csr %d", du, base)
	}
	if vi >= base {
		t.Errorf("csr-vi moved %d lines vs csr %d", vi, base)
	}
}

func mustF(f core.Format, err error) core.Format {
	if err != nil {
		panic(err)
	}
	return f
}

func TestMultithreadedScalingShape(t *testing.T) {
	// A memory-bound matrix (ws >> total L2): 8-thread CSR speedup must
	// be clearly sublinear, and CSR-DU must beat CSR at 8 threads
	// (paper Tables II/III shape).
	rng := rand.New(rand.NewSource(2))
	c := matgen.Banded(rng, 400000, 80, 12, matgen.Values{})
	m := memsim.Clovertown()

	base, _ := csr.FromCOO(c)
	du, _ := csrdu.FromCOO(c)

	run := func(f core.Format, threads int) uint64 {
		r, err := SimulateSpMV(m, f, threads, nil, 2)
		if err != nil {
			t.Fatal(err)
		}
		return r.Cycles
	}
	csr1 := run(base, 1)
	csr8 := run(base, 8)
	du8 := run(du, 8)

	speedup8 := float64(csr1) / float64(csr8)
	if speedup8 > 5.0 {
		t.Errorf("CSR 8-thread speedup %.2f too good: matrix should be memory-bound", speedup8)
	}
	if speedup8 < 1.2 {
		t.Errorf("CSR 8-thread speedup %.2f: no scaling at all", speedup8)
	}
	if du8 >= csr8 {
		t.Errorf("CSR-DU at 8 threads (%d cycles) not faster than CSR (%d)", du8, csr8)
	}
}

func TestSharedL2PlacementWorseForBigMatrices(t *testing.T) {
	// Paper Table II: 2 threads on a shared L2 scale worse than on
	// separate L2s. The effect lives near the cache size: each thread's
	// half working set (~3MB here) fits its own 4MB L2 but the two
	// together overflow a shared one.
	rng := rand.New(rand.NewSource(3))
	c := matgen.Banded(rng, 80000, 40, 5, matgen.Values{})
	m := memsim.Clovertown()
	f, _ := csr.FromCOO(c)
	shared, err := SimulateSpMV(m, f, 2, memsim.ClosePlacement(2), 4)
	if err != nil {
		t.Fatal(err)
	}
	spread, err := SimulateSpMV(m, f, 2, memsim.SpreadPlacement(2, m.L2SharedBy), 4)
	if err != nil {
		t.Fatal(err)
	}
	if float64(spread.Cycles) > 0.98*float64(shared.Cycles) {
		t.Errorf("separate L2 (%d) not clearly faster than shared (%d)", spread.Cycles, shared.Cycles)
	}
}

func TestSmallMatrixFitsInCacheAndScales(t *testing.T) {
	// ws below a single L2: after warmup everything hits in cache and
	// multithreading scales well (paper's M_S behaviour).
	c := matgen.Stencil2D(100) // ws ~ 700KB
	m := memsim.Clovertown()
	f, _ := csr.FromCOO(c)
	r1, _ := SimulateSpMV(m, f, 1, nil, 4)
	r8, _ := SimulateSpMV(m, f, 8, nil, 4)
	speedup := float64(r1.Cycles) / float64(r8.Cycles)
	if speedup < 3.5 {
		t.Errorf("cache-resident 8-thread speedup = %.2f, want > 3.5", speedup)
	}
}
