package parallel

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"spmv/internal/core"
	"spmv/internal/csr"
	"spmv/internal/matgen"
)

// eachHarness is a 4-worker row executor over a small stencil plus the
// operands and reference product its Run should keep producing.
func eachHarness(t *testing.T) (e *Executor, x, want []float64) {
	t.Helper()
	c := matgen.Stencil2D(12)
	f, err := csr.FromCOO(c)
	if err != nil {
		t.Fatal(err)
	}
	if e, err = NewExecutor(f, 4); err != nil {
		t.Fatal(err)
	}
	x = make([]float64, c.Cols())
	for i := range x {
		x[i] = float64(i%5) - 2
	}
	want = make([]float64, c.Rows())
	c.SpMV(want, x)
	return e, x, want
}

func TestEachRunsOnceOnEveryWorker(t *testing.T) {
	e, _, _ := eachHarness(t)
	defer e.Close()
	calls := make([]atomic.Int32, e.Threads())
	err := e.Each(func(w, workers int) {
		if workers != e.Threads() {
			t.Errorf("workers = %d, want %d", workers, e.Threads())
		}
		calls[w].Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	for w := range calls {
		if n := calls[w].Load(); n != 1 {
			t.Errorf("worker %d ran %d times", w, n)
		}
	}
	if err := e.Each(nil); !errors.Is(err, core.ErrUsage) {
		t.Errorf("Each(nil): got %v, want ErrUsage", err)
	}
}

// TestEachConcurrentWithRun interleaves Each sweeps and multiplies from
// several goroutines: both take the run lock, so every multiply must
// still be exact and every sweep must see all workers exactly once.
func TestEachConcurrentWithRun(t *testing.T) {
	e, x, want := eachHarness(t)
	defer e.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			y := make([]float64, len(want))
			for i := 0; i < 50; i++ {
				if err := e.Run(y, x); err != nil {
					t.Errorf("Run: %v", err)
					return
				}
				for r := range y {
					if y[r] != want[r] {
						t.Errorf("Run beside Each: y[%d] = %v, want %v", r, y[r], want[r])
						return
					}
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var seen atomic.Int32
				if err := e.Each(func(w, workers int) { seen.Add(1) }); err != nil {
					t.Errorf("Each: %v", err)
					return
				}
				if int(seen.Load()) != e.Threads() {
					t.Errorf("Each reached %d of %d workers", seen.Load(), e.Threads())
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestEachVsCloseRace closes the executor under a stream of Each
// calls: every call either completes or loses with the usage error,
// and none panics on the closed worker channels.
func TestEachVsCloseRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		e, _, _ := eachHarness(t)
		started := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; ; i++ {
				err := e.Each(func(w, workers int) {})
				if i == 0 {
					close(started)
				}
				if err != nil {
					if !errors.Is(err, core.ErrUsage) {
						t.Errorf("Each racing Close: got %v, want nil or ErrUsage", err)
					}
					return
				}
			}
		}()
		<-started
		e.Close()
		<-done
		if err := e.Each(func(w, workers int) {}); !errors.Is(err, core.ErrUsage) {
			t.Fatalf("Each after Close: got %v, want ErrUsage", err)
		}
	}
}

func TestEachContainsPanic(t *testing.T) {
	e, x, want := eachHarness(t)
	defer e.Close()
	err := e.Each(func(w, workers int) {
		if w == 2 {
			panic("sweep body failed")
		}
	})
	if err == nil || !strings.Contains(err.Error(), "worker 2 of 4") || !strings.Contains(err.Error(), "sweep body failed") {
		t.Fatalf("panicking body: got %v, want an error naming worker 2 of 4", err)
	}
	// The pool is intact: the next sweep and the next multiply succeed.
	if err := e.Each(func(w, workers int) {}); err != nil {
		t.Fatalf("Each after a contained panic: %v", err)
	}
	y := make([]float64, len(want))
	if err := e.Run(y, x); err != nil {
		t.Fatalf("Run after a contained panic: %v", err)
	}
	for r := range y {
		if y[r] != want[r] {
			t.Fatalf("y[%d] = %v, want %v", r, y[r], want[r])
		}
	}
}
