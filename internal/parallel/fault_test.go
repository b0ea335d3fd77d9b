package parallel

import (
	"errors"
	"strings"
	"testing"

	"spmv/internal/core"
	"spmv/internal/csc"
	"spmv/internal/csr"
	"spmv/internal/dcsr"
	"spmv/internal/matgen"
	"spmv/internal/obs"
	"spmv/internal/sym"
)

// corruptDCSR builds a dcsr matrix whose command stream is corrupted
// AFTER construction (so it bypasses FromCOO's validation), the way a
// shared-memory or mmap'd stream would rot underneath a live executor.
func corruptDCSR(t *testing.T) *dcsr.Matrix {
	t.Helper()
	m, err := dcsr.FromCOO(matgen.Stencil2D(8))
	if err != nil {
		t.Fatal(err)
	}
	m.Cmds[len(m.Cmds)/2] = 200 // invalid opcode mid-stream
	return m
}

func TestRunRecoversKernelPanic(t *testing.T) {
	m := corruptDCSR(t)
	e, err := NewExecutor(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	y := make([]float64, m.Rows())
	x := make([]float64, m.Cols())
	runErr := e.Run(y, x)
	if runErr == nil {
		t.Fatal("Run on corrupt stream returned nil")
	}
	if !errors.Is(runErr, core.ErrCorrupt) {
		t.Fatalf("error %v does not wrap core.ErrCorrupt", runErr)
	}
	if !strings.Contains(runErr.Error(), "chunk rows [") {
		t.Fatalf("error %v does not name the chunk row range", runErr)
	}
	// The executor survives the failure: it can run again (and fail
	// again) without deadlocking on its worker pool.
	if err := e.Run(y, x); err == nil {
		t.Fatal("second Run on corrupt stream returned nil")
	}
	// And Verify would have caught the corruption up front.
	if err := m.Verify(); !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("Verify: got %v, want ErrCorrupt", err)
	}
}

func TestRunItersStopsOnError(t *testing.T) {
	m := corruptDCSR(t)
	e, err := NewExecutor(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	y := make([]float64, m.Rows())
	x := make([]float64, m.Cols())
	if err := e.RunIters(10, y, x); err == nil {
		t.Fatal("RunIters on corrupt stream returned nil")
	} else if !strings.Contains(err.Error(), "iteration 0") {
		t.Fatalf("error %v does not name the failing iteration", err)
	}
}

func TestRunRejectsShortVectors(t *testing.T) {
	m, err := dcsr.FromCOO(matgen.Stencil2D(6))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewExecutor(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	y := make([]float64, m.Rows())
	x := make([]float64, m.Cols())
	if err := e.Run(y[:len(y)-1], x); !errors.Is(err, core.ErrShape) {
		t.Fatalf("short y: got %v, want ErrShape", err)
	}
	if err := e.Run(y, x[:len(x)-1]); !errors.Is(err, core.ErrShape) {
		t.Fatalf("short x: got %v, want ErrShape", err)
	}
	if err := e.Run(y, x); err != nil {
		t.Fatalf("full-length vectors rejected: %v", err)
	}
}

func TestColExecutorRejectsShortVectors(t *testing.T) {
	c := matgen.Stencil2D(6)
	m, err := csc.FromCOO(c)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewColExecutor(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	y := make([]float64, m.Rows())
	x := make([]float64, m.Cols())
	if err := e.Run(y[:len(y)-1], x); !errors.Is(err, core.ErrShape) {
		t.Fatalf("short y: got %v, want ErrShape", err)
	}
	if err := e.Run(y, x); err != nil {
		t.Fatalf("full-length vectors rejected: %v", err)
	}
}

func TestBlockExecutorRejectsShortVectors(t *testing.T) {
	c := matgen.Stencil2D(6)
	e, err := NewBlockExecutor(c, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	y := make([]float64, c.Rows())
	x := make([]float64, c.Cols())
	if err := e.Run(y[:len(y)-1], x); !errors.Is(err, core.ErrShape) {
		t.Fatalf("short y: got %v, want ErrShape", err)
	}
	if err := e.Run(y, x); err != nil {
		t.Fatalf("full-length vectors rejected: %v", err)
	}
}

// TestFailedRunReportsOneRunStat injects a kernel panic into each of
// the five executors (the row executor twice: as New builds it, and cut
// into units of 16 non-zeros) — an out-of-range index planted in the matrix each
// one multiplies — and checks that a failed Run and a failed RunBatch
// each reach the collector as exactly one RunStat with Err set and the
// executor's Partition. The col, sym and block executors used to
// return on a failed multiply phase before reporting, so their failed
// runs left no RunStat at all.
func TestFailedRunReportsOneRunStat(t *testing.T) {
	c := matgen.Stencil2D(12)
	const bad = 1 << 30
	csrBad := func() *csr.Matrix {
		m := mustFormat(csr.FromCOO(c)).(*csr.Matrix)
		m.ColInd[len(m.ColInd)/2] = bad
		return m
	}
	runners := map[string]func() (Runner, error){
		"row":       func() (Runner, error) { return NewExecutor(csrBad(), 3) },
		"row-units": func() (Runner, error) { return newExecutor(csrBad(), 3, 16) },
		"nnz":       func() (Runner, error) { return NewNNZExecutor(csrBad(), 3) },
		"col": func() (Runner, error) {
			m := mustFormat(csc.FromCOO(c)).(*csc.Matrix)
			m.RowInd[len(m.RowInd)/2] = bad
			return NewColExecutor(m, 3)
		},
		"sym": func() (Runner, error) {
			m := mustFormat(sym.FromCOO(c, 1e-12)).(*sym.Matrix)
			m.ColInd[len(m.ColInd)/2] = bad
			return NewSymExecutor(m, 3)
		},
		"block": func() (Runner, error) {
			e, err := NewBlockExecutor(c, 2, 2)
			if err == nil {
				e.blocks[0].ColInd[0] = bad
			}
			return e, err
		},
	}
	for name, mk := range runners {
		partition := strings.TrimSuffix(name, "-units")
		t.Run(name, func(t *testing.T) {
			e, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			rec := obs.NewRecorder()
			e.SetCollector(rec)
			const k = 3
			n := c.Rows()
			y := make([]float64, n*k)
			x := make([]float64, n*k)
			if err := e.Run(y[:n], x[:n]); err == nil {
				t.Fatal("Run with a planted panic succeeded")
			}
			s := rec.Snapshot()
			if s.Runs != 1 || s.Last.Err == "" || s.Last.Partition != partition || s.Last.Vectors != 1 {
				t.Fatalf("after failed Run: runs = %d, last = {Partition %q, Vectors %d, Err %q}, want 1 run of %q with Err set",
					s.Runs, s.Last.Partition, s.Last.Vectors, s.Last.Err, partition)
			}
			if err := e.RunBatch(y, x, k); err == nil {
				t.Fatal("RunBatch with a planted panic succeeded")
			}
			s = rec.Snapshot()
			if s.Runs != 2 || s.Last.Err == "" || s.Last.Partition != partition || s.Last.Vectors != k {
				t.Fatalf("after failed RunBatch: runs = %d, last = {Partition %q, Vectors %d, Err %q}, want 2 runs, the last of %q with Err set and Vectors %d",
					s.Runs, s.Last.Partition, s.Last.Vectors, s.Last.Err, partition, k)
			}
		})
	}
}
