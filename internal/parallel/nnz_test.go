package parallel

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"spmv/internal/core"
	"spmv/internal/csr"
	"spmv/internal/matgen"
	"spmv/internal/obs"
	"spmv/internal/partition"
	"spmv/internal/testmat"
)

func TestNNZExecutorMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	coos := map[string]*core.COO{
		"stencil":  matgen.Stencil2D(12),
		"fem":      matgen.FEMLike(rng, 300, 6, matgen.Values{Unique: 30}),
		"powerlaw": matgen.PowerLaw(rng, 400, 4, 0.9, matgen.Values{}),
		"skewed":   matgen.SkewedRows(rng, 200, 3, 100, 0.5, matgen.Values{}),
	}
	for name, c := range coos {
		f, err := csr.FromCOO(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		x := testmat.RandVec(rng, c.Cols())
		want := reference(c, x)
		for _, threads := range []int{1, 2, 3, 4, 8, 16} {
			e, err := NewNNZExecutor(f, threads)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, threads, err)
			}
			y := make([]float64, c.Rows())
			for iter := 0; iter < 3; iter++ {
				if err := e.Run(y, x); err != nil {
					t.Fatalf("%s/%d: %v", name, threads, err)
				}
				testmat.AssertClose(t, name, y, want, 1e-10)
			}
			e.Close()
		}
	}
}

// TestNNZExecutorEmptyRows checks gap-row zeroing: rows with no stored
// non-zeros belong to no chunk and must still be written as zero, even
// at the matrix edges.
func TestNNZExecutorEmptyRows(t *testing.T) {
	c := core.NewCOO(10, 10)
	// Rows 0, 3, 4, 9 stay empty; row 5 is heavy.
	c.Add(1, 1, 2)
	c.Add(2, 0, 3)
	for j := 0; j < 10; j++ {
		c.Add(5, j, float64(j+1))
	}
	c.Add(6, 6, -1)
	c.Add(8, 2, 4)
	c.Finalize()
	f, err := csr.FromCOO(c)
	if err != nil {
		t.Fatal(err)
	}
	x := testmat.RandVec(rand.New(rand.NewSource(5)), 10)
	want := reference(c, x)
	for _, threads := range []int{1, 2, 4, 8} {
		e, err := NewNNZExecutor(f, threads)
		if err != nil {
			t.Fatal(err)
		}
		y := make([]float64, 10)
		for i := range y {
			y[i] = 99 // stale values must be overwritten, gaps zeroed
		}
		if err := e.Run(y, x); err != nil {
			t.Fatal(err)
		}
		testmat.AssertClose(t, "empty-rows", y, want, 1e-12)
		e.Close()
	}
}

// TestNNZSplitBeatsRowSplitOnSkew is the acceptance criterion: with one
// row holding over a quarter of the non-zeros, row-granular splitting
// at 8 threads is stuck above 2x imbalance while non-zero splitting
// stays within 1.25x.
func TestNNZSplitBeatsRowSplitOnSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := matgen.SkewedRows(rng, 2000, 2, 1000, 0.3, matgen.Values{})
	m, err := csr.FromCOO(c)
	if err != nil {
		t.Fatal(err)
	}
	const threads = 8
	prefix := make([]int64, m.Rows()+1)
	for i := range prefix {
		prefix[i] = int64(m.RowPtr[i])
	}
	rowImb := partition.Imbalance(prefix, partition.SplitRowsByNNZ(m.RowPtr, threads))
	if rowImb <= 2.0 {
		t.Fatalf("row-granular imbalance %v, want > 2 (matrix not skewed enough)", rowImb)
	}

	chunks := m.SplitNNZ(threads)
	cp := make([]int64, len(chunks)+1)
	cb := make([]int, len(chunks)+1)
	for i, ch := range chunks {
		cp[i+1] = cp[i] + int64(ch.NNZ())
		cb[i+1] = i + 1
	}
	nnzImb := partition.Imbalance(cp, cb)
	if nnzImb > 1.25 {
		t.Errorf("nnz-split imbalance %v, want <= 1.25 (row-granular: %v)", nnzImb, rowImb)
	}
}

func TestNNZExecutorBatchAndCtx(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	c := matgen.SkewedRows(rng, 150, 3, 75, 0.4, matgen.Values{})
	f, err := csr.FromCOO(c)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewNNZExecutor(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const k = 3
	x := testmat.RandVec(rng, c.Cols()*k)
	y := make([]float64, c.Rows()*k)
	if err := e.RunBatch(y, x, k); err != nil {
		t.Fatal(err)
	}
	for col := 0; col < k; col++ {
		xc := make([]float64, c.Cols())
		yc := make([]float64, c.Rows())
		for j := range xc {
			xc[j] = x[j*k+col]
		}
		for i := range yc {
			yc[i] = y[i*k+col]
		}
		testmat.AssertClose(t, "batch", yc, reference(c, xc), 1e-10)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.RunCtx(ctx, make([]float64, c.Rows()), x[:c.Cols()]); !errors.Is(err, context.Canceled) {
		t.Errorf("RunCtx on cancelled context = %v, want context.Canceled", err)
	}
	if err := e.RunBatchCtx(ctx, y, x, k); !errors.Is(err, context.Canceled) {
		t.Errorf("RunBatchCtx on cancelled context = %v, want context.Canceled", err)
	}
}

func TestNNZExecutorCollector(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	c := matgen.SkewedRows(rng, 100, 3, 50, 0.4, matgen.Values{})
	f, err := csr.FromCOO(c)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewNNZExecutor(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rec := obs.NewRecorder()
	e.SetCollector(rec)
	x := testmat.RandVec(rng, c.Cols())
	y := make([]float64, c.Rows())
	if err := e.Run(y, x); err != nil {
		t.Fatal(err)
	}
	s := rec.Snapshot()
	if s.Runs != 1 || s.Last.Partition != "nnz" {
		t.Fatalf("snapshot = %+v, want 1 run with partition nnz", s)
	}
	if got := len(s.Last.Chunks); got != e.Threads() {
		t.Errorf("chunk stats %d, want %d", got, e.Threads())
	}
	var nnz int
	for _, cs := range s.Last.Chunks {
		nnz += cs.NNZ
	}
	if nnz != f.NNZ() {
		t.Errorf("chunk nnz sums to %d, want %d", nnz, f.NNZ())
	}
	if s.Last.Err != "" {
		t.Errorf("RunStat.Err = %q on success", s.Last.Err)
	}
}

func TestNNZExecutorPanicContainment(t *testing.T) {
	c := matgen.Stencil2D(8)
	m, err := csr.FromCOO(c)
	if err != nil {
		t.Fatal(err)
	}
	m.ColInd[len(m.ColInd)/2] = 10000 // out of range: kernel panics
	e, err := NewNNZExecutor(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rec := obs.NewRecorder()
	e.SetCollector(rec)
	x := make([]float64, m.Cols())
	y := make([]float64, m.Rows())
	runErr := e.Run(y, x)
	if runErr == nil {
		t.Fatal("Run on corrupt matrix succeeded")
	}
	if !strings.Contains(runErr.Error(), "chunk rows") {
		t.Errorf("error %q does not name the chunk", runErr)
	}
	if s := rec.Snapshot(); s.Last.Err == "" {
		t.Errorf("RunStat.Err empty after failed run")
	}
	// The executor survives: a subsequent run still reports cleanly.
	if err := e.Run(y, x); err == nil {
		t.Fatal("second Run on corrupt matrix succeeded")
	}
}

func TestNNZExecutorClosed(t *testing.T) {
	m, err := csr.FromCOO(matgen.Stencil2D(4))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewNNZExecutor(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close() // idempotent
	y := make([]float64, m.Rows())
	x := make([]float64, m.Cols())
	if err := e.Run(y, x); !errors.Is(err, core.ErrUsage) {
		t.Errorf("Run after Close = %v, want core.ErrUsage", err)
	}
	if err := e.RunBatch(y, x, 1); !errors.Is(err, core.ErrUsage) {
		t.Errorf("RunBatch after Close = %v, want core.ErrUsage", err)
	}
}

// BenchmarkSchedulersSkewed compares the two row-oriented schedulers
// on a matrix whose heaviest row holds 30% of the non-zeros — the
// workload where a static row split hits imbalance 2.4 at 8 threads
// while nonzero splitting stays at 1.0 (pinned by
// TestNNZSplitBeatsRowSplitOnSkew). Wall-clock differences only
// appear with >= 8 hardware threads; on fewer cores the OS
// multiplexes the workers and static imbalance costs nothing.
func BenchmarkSchedulersSkewed(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	c := matgen.SkewedRows(rng, 100000, 2, 50000, 0.30, matgen.Values{})
	f, err := csr.FromCOO(c)
	if err != nil {
		b.Fatal(err)
	}
	x := testmat.RandVec(rng, c.Cols())
	y := make([]float64, c.Rows())
	for _, bc := range []struct {
		name string
		opts ExecOptions
	}{
		{"row8", ExecOptions{Threads: 8}},
		{"nnz8", ExecOptions{Threads: 8, Partition: "nnz"}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			e, err := New(f, bc.opts)
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.Run(y, x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// errAfter is a context whose Err turns to context.Canceled from its
// n+1-th call: a cancellation that lands while a run is under way.
type errAfter struct {
	context.Context
	n atomic.Int32
}

func (c *errAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestNNZBatchStopsBetweenColumns: RunBatchCtx on an executor without
// a fused batch path checks the context before each column, so a
// cancellation during column 0 stops the batch before column 1. The
// context passes the entry check and column 0's.
func TestNNZBatchStopsBetweenColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	c := matgen.SkewedRows(rng, 150, 3, 75, 0.4, matgen.Values{})
	f, err := csr.FromCOO(c)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewNNZExecutor(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const k = 3
	ctx := &errAfter{Context: context.Background()}
	ctx.n.Store(2)
	y := make([]float64, c.Rows()*k)
	err = e.RunBatchCtx(ctx, y, testmat.RandVec(rng, c.Cols()*k), k)
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "column 1") {
		t.Fatalf("RunBatchCtx = %v, want context.Canceled at column 1", err)
	}
}
