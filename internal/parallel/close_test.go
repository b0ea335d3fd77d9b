package parallel

import (
	"context"
	"errors"
	"sync"
	"testing"

	"spmv/internal/core"
	"spmv/internal/csr"
	"spmv/internal/matgen"
	"spmv/internal/sym"
)

// closeHarness builds one executor of each partition scheme over the
// same small symmetric matrix, so the lifecycle tests cover all three
// executors: row and nnz over csr, and sym over sym-csr. "row-units" is the row executor cut into
// units of 16 non-zeros, so several workers claim many units. Keys are
// RunStat.Partition, bar the "-units" suffix.
func closeHarness(t *testing.T) map[string]func() Runner {
	t.Helper()
	c := matgen.Stencil2D(12)
	format := func(f core.Format, err error) core.Format {
		t.Helper()
		if err != nil {
			t.Fatalf("format: %v", err)
		}
		return f
	}
	runner := func(r Runner, err error) Runner {
		t.Helper()
		if err != nil {
			t.Fatalf("executor: %v", err)
		}
		return r
	}
	return map[string]func() Runner{
		"row": func() Runner {
			return runner(NewExecutor(format(csr.FromCOO(c)), 4))
		},
		"row-units": func() Runner {
			return runner(newExecutor(format(csr.FromCOO(c)), 4, 16))
		},
		"nnz": func() Runner {
			return runner(NewNNZExecutor(format(csr.FromCOO(c)), 4))
		},
		"sym": func() Runner {
			return runner(NewSymExecutor(format(sym.FromCOO(c, 1e-12)), 4))
		},
	}
}

// TestCloseConcurrentIdempotent drives many simultaneous Close calls
// on every executor kind: exactly one must win, the rest must be
// no-ops, and a subsequent Run must report the usage error rather than
// panicking on a doubly closed channel. Run under -race this is the
// regression test for the server executor pool's double-Close hazard.
func TestCloseConcurrentIdempotent(t *testing.T) {
	for name, mk := range closeHarness(t) {
		t.Run(name, func(t *testing.T) {
			e := mk()
			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					e.Close()
				}()
			}
			wg.Wait()
			y := make([]float64, 12*12)
			x := make([]float64, 12*12)
			if err := e.Run(y, x); !errors.Is(err, core.ErrUsage) {
				t.Fatalf("Run after concurrent Close: got %v, want ErrUsage", err)
			}
		})
	}
}

// TestCloseVsRunRace closes each executor while another goroutine is
// mid Run loop. Every Run must either complete cleanly or return the
// typed closed-executor error; the old unsynchronized close could
// instead panic sending on a closed channel.
func TestCloseVsRunRace(t *testing.T) {
	for name, mk := range closeHarness(t) {
		t.Run(name, func(t *testing.T) {
			e := mk()
			y := make([]float64, 12*12)
			x := make([]float64, 12*12)
			for i := range x {
				x[i] = 1
			}
			done := make(chan error, 1)
			go func() {
				for {
					if err := e.Run(y, x); err != nil {
						done <- err
						return
					}
				}
			}()
			e.Close()
			if err := <-done; !errors.Is(err, core.ErrUsage) {
				t.Fatalf("racing Run: got %v, want ErrUsage", err)
			}
		})
	}
}

// TestRunCtxCanceled checks the context-aware entry points reject an
// already-canceled context without dispatching, on the scalar and
// batched paths of all three executors.
func TestRunCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, mk := range closeHarness(t) {
		t.Run(name, func(t *testing.T) {
			e := mk()
			defer e.Close()
			y := make([]float64, 12*12*2)
			x := make([]float64, 12*12*2)
			if err := e.RunCtx(ctx, y[:12*12], x[:12*12]); !errors.Is(err, context.Canceled) {
				t.Fatalf("RunCtx: got %v, want context.Canceled", err)
			}
			if err := e.RunBatchCtx(ctx, y, x, 2); !errors.Is(err, context.Canceled) {
				t.Fatalf("RunBatchCtx: got %v, want context.Canceled", err)
			}
		})
	}
}

// TestRunCtxLiveMatchesRun checks a live context leaves results
// identical to the plain entry points.
func TestRunCtxLiveMatchesRun(t *testing.T) {
	c := matgen.Stencil2D(12)
	f, err := csr.FromCOO(c)
	if err != nil {
		t.Fatalf("csr: %v", err)
	}
	e, err := NewExecutor(f, 3)
	if err != nil {
		t.Fatalf("executor: %v", err)
	}
	defer e.Close()
	n := c.Rows()
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i%7) + 0.5
	}
	want := make([]float64, n)
	if err := e.Run(want, x); err != nil {
		t.Fatalf("Run: %v", err)
	}
	got := make([]float64, n)
	if err := e.RunCtx(context.Background(), got, x); err != nil {
		t.Fatalf("RunCtx: %v", err)
	}
	for i := range got {
		if !core.SameBits(got[i], want[i]) {
			t.Fatalf("RunCtx diverges from Run at %d: %v != %v", i, got[i], want[i])
		}
	}
}
