package parallel

import (
	"errors"
	"math/rand"
	"testing"

	"spmv/internal/core"
	"spmv/internal/csr"
	"spmv/internal/matgen"
	"spmv/internal/obs"
	"spmv/internal/sym"
	"spmv/internal/testmat"
)

// Regression tests for the Run-after-Close bug: the executors used to
// die with "send on closed channel"; they must return a typed
// core.ErrUsage error instead, and stay (harmlessly) reusable.

func TestRunAfterCloseRowExecutor(t *testing.T) {
	c := matgen.Stencil2D(8)
	f, _ := csr.FromCOO(c)
	e, err := NewExecutor(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, c.Rows())
	x := make([]float64, c.Cols())
	e.Close()
	if err := e.Run(y, x); !errors.Is(err, core.ErrUsage) {
		t.Fatalf("Run after Close: err = %v, want ErrUsage", err)
	}
	if err := e.RunIters(3, y, x); !errors.Is(err, core.ErrUsage) {
		t.Fatalf("RunIters after Close: err = %v, want ErrUsage", err)
	}
}

func TestRunAfterCloseSymExecutor(t *testing.T) {
	c := matgen.Stencil2D(8)
	f, _ := sym.FromCOO(c, 1e-12)
	e, err := NewSymExecutor(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, c.Rows())
	x := make([]float64, c.Cols())
	e.Close()
	if err := e.Run(y, x); !errors.Is(err, core.ErrUsage) {
		t.Fatalf("Run after Close: err = %v, want ErrUsage", err)
	}
	if err := e.RunIters(2, y, x); !errors.Is(err, core.ErrUsage) {
		t.Fatalf("RunIters after Close: err = %v, want ErrUsage", err)
	}
}

// checkRunStats validates the invariants every executor's telemetry
// must satisfy: one chunk per worker, chunk nnz summing to the matrix
// nnz, and a positive wall time.
func checkRunStats(t *testing.T, snap obs.Snapshot, wantRuns, wantWorkers, wantNNZ int, partition string) {
	t.Helper()
	if snap.Runs != wantRuns {
		t.Errorf("runs = %d, want %d", snap.Runs, wantRuns)
	}
	if snap.Last.Partition != partition {
		t.Errorf("partition = %q, want %q", snap.Last.Partition, partition)
	}
	if got := len(snap.Last.Chunks); got != wantWorkers {
		t.Errorf("chunks = %d, want %d workers", got, wantWorkers)
	}
	totalNNZ := 0
	for i, c := range snap.Last.Chunks {
		if c.Worker != i {
			t.Errorf("chunk %d has worker index %d", i, c.Worker)
		}
		if c.Hi < c.Lo {
			t.Errorf("chunk %d has inverted range [%d,%d)", i, c.Lo, c.Hi)
		}
		totalNNZ += c.NNZ
	}
	if totalNNZ != wantNNZ {
		t.Errorf("chunk nnz sums to %d, want %d", totalNNZ, wantNNZ)
	}
	if snap.Wall <= 0 {
		t.Errorf("wall = %v, want > 0", snap.Wall)
	}
	if snap.MeanTimeImbalance < 1 || snap.MaxTimeImbalance < snap.MeanTimeImbalance {
		t.Errorf("imbalance mean/max = %v/%v out of order", snap.MeanTimeImbalance, snap.MaxTimeImbalance)
	}
}

func TestExecutorCollectorRow(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := matgen.FEMLike(rng, 300, 6, matgen.Values{})
	f, _ := csr.FromCOO(c)
	e, err := NewExecutor(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rec := obs.NewRecorder()
	e.SetCollector(rec)
	x := testmat.RandVec(rng, c.Cols())
	y := make([]float64, c.Rows())
	if err := e.RunIters(5, y, x); err != nil {
		t.Fatal(err)
	}
	checkRunStats(t, rec.Snapshot(), 5, e.Threads(), c.Len(), "row")
	// The workers ran every unit once between them.
	units := 0
	for _, cs := range rec.Snapshot().Last.Chunks {
		units += cs.Units
	}
	if units != len(e.units) {
		t.Errorf("workers ran %d units, want %d", units, len(e.units))
	}
	// The result must be unaffected by instrumentation.
	testmat.AssertClose(t, "instrumented run", y, reference(c, x), 1e-10)

	// Detaching stops collection.
	e.SetCollector(nil)
	if err := e.Run(y, x); err != nil {
		t.Fatal(err)
	}
	if rec.Runs() != 5 {
		t.Errorf("detached recorder grew to %d runs", rec.Runs())
	}
}

func TestExecutorCollectorSym(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	c := matgen.Symmetrize(matgen.FEMLike(rng, 250, 5, matgen.Values{}))
	f, _ := sym.FromCOO(c, 1e-12)
	e, err := NewSymExecutor(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rec := obs.NewRecorder()
	e.SetCollector(rec)
	x := testmat.RandVec(rng, c.Cols())
	y := make([]float64, c.Rows())
	if err := e.RunIters(3, y, x); err != nil {
		t.Fatal(err)
	}
	checkRunStats(t, rec.Snapshot(), 3, e.Threads(), f.NNZ(), "sym")
	testmat.AssertClose(t, "instrumented sym run", y, reference(c, x), 1e-10)
}

// TestCollectorDisabledIsDefault pins the zero-cost default: a fresh
// executor carries no stats buffer, so the hot path's only added work
// is the nil check.
func TestCollectorDisabledIsDefault(t *testing.T) {
	c := matgen.Stencil2D(6)
	f, _ := csr.FromCOO(c)
	e, err := NewExecutor(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.stats != nil || e.collector != nil {
		t.Error("fresh executor has instrumentation enabled")
	}
	y := make([]float64, c.Rows())
	if err := e.Run(y, make([]float64, c.Cols())); err != nil {
		t.Fatal(err)
	}
}
