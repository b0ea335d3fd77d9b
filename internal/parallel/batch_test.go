package parallel

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"spmv/internal/core"
	"spmv/internal/csc"
	"spmv/internal/csr"
	"spmv/internal/csrdu"
	"spmv/internal/csrduvi"
	"spmv/internal/csrvi"
	"spmv/internal/ell"
	"spmv/internal/matgen"
	"spmv/internal/obs"
	"spmv/internal/sym"
	"spmv/internal/testmat"
)

// batchReference computes the expected panel column by column from the
// dense reference.
func batchReference(c *core.COO, x []float64, k int) []float64 {
	d := core.DenseFromCOO(c)
	want := make([]float64, c.Rows()*k)
	xc := make([]float64, c.Cols())
	yc := make([]float64, c.Rows())
	for cc := 0; cc < k; cc++ {
		for j := range xc {
			xc[j] = x[j*k+cc]
		}
		d.SpMV(yc, xc)
		for i, v := range yc {
			want[i*k+cc] = v
		}
	}
	return want
}

// TestRunBatchMatchesReference covers both executor paths: the fused
// dispatch (every chunk a BatchChunk: the csr/csr-du/csr-vi family)
// and the per-column fallback (ell chunks have no batch kernel).
func TestRunBatchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	c := matgen.FEMLike(rng, 300, 6, matgen.Values{Unique: 25})

	builders := map[string]func() (core.Format, error){
		"csr":       func() (core.Format, error) { return csr.FromCOO(c) },
		"csr-du":    func() (core.Format, error) { return csrdu.FromCOO(c) },
		"csr-vi":    func() (core.Format, error) { return csrvi.FromCOO(c) },
		"csr-du-vi": func() (core.Format, error) { return csrduvi.FromCOO(c) },
		"ell":       func() (core.Format, error) { return ell.FromCOO(c) }, // fallback path
	}
	for name, build := range builders {
		f, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, k := range []int{1, 3, 4, 8} {
			x := testmat.RandVec(rng, c.Cols()*k)
			want := batchReference(c, x, k)
			e, err := NewExecutor(f, 4)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			y := make([]float64, c.Rows()*k)
			if err := e.RunBatch(y, x, k); err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			testmat.AssertClose(t, name, y, want, 1e-10)
			// Repeat on the same executor: scratch reuse must not leak
			// state between runs.
			if err := e.RunBatchIters(3, y, x, k); err != nil {
				t.Fatalf("%s k=%d iters: %v", name, k, err)
			}
			testmat.AssertClose(t, name+" iters", y, want, 1e-10)
			e.Close()
		}
	}
}

// TestRunBatchGapRowsZeroed: rows owned by no chunk (empty tail) must
// come out zero in every panel column, on both executor paths.
func TestRunBatchGapRowsZeroed(t *testing.T) {
	c := core.NewCOO(40, 40)
	for i := 0; i < 30; i++ { // rows 30..39 empty
		c.Add(i, i, float64(i+1))
	}
	c.Finalize()
	const k = 4
	for name, f := range map[string]core.Format{
		"csr": mustFormat(csr.FromCOO(c)),
		"ell": mustFormat(ell.FromCOO(c)),
	} {
		e, err := NewExecutor(f, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		y := make([]float64, 40*k)
		for i := range y {
			y[i] = 7
		}
		if err := e.RunBatch(y, make([]float64, 40*k), k); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, v := range y {
			if v != 0 {
				t.Fatalf("%s: y[%d] = %v, want 0", name, i, v)
			}
		}
		e.Close()
	}
}

// TestRunBatchTelemetry: one batched run is one RunStat with
// Vectors = k on both the fused and fallback paths.
func TestRunBatchTelemetry(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	c := matgen.Banded(rng, 200, 9, 5, matgen.Values{})
	for name, f := range map[string]core.Format{
		"csr": mustFormat(csr.FromCOO(c)),
		"ell": mustFormat(ell.FromCOO(c)),
	} {
		e, err := NewExecutor(f, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rec := &obs.Recorder{}
		e.SetCollector(rec)
		const k = 4
		y := make([]float64, c.Rows()*k)
		x := testmat.RandVec(rng, c.Cols()*k)
		if err := e.RunBatch(y, x, k); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := rec.Runs(); got != 1 {
			t.Fatalf("%s: %d RunStats for one RunBatch, want 1", name, got)
		}
		if s := rec.Snapshot(); s.Last.Vectors != k || s.Vectors != k {
			t.Errorf("%s: Last.Vectors = %d, total = %d, want %d",
				name, s.Last.Vectors, s.Vectors, k)
		}
		// The scalar path reports Vectors = 1.
		if err := e.Run(y[:c.Rows()], x[:c.Cols()]); err != nil {
			t.Fatal(err)
		}
		if s := rec.Snapshot(); s.Last.Vectors != 1 || s.Vectors != k+1 {
			t.Errorf("%s: after scalar run Last.Vectors = %d, total = %d, want 1 and %d",
				name, s.Last.Vectors, s.Vectors, k+1)
		}
		e.Close()
	}
}

// TestRunBatchErrors: closed executors and bad panel shapes produce the
// typed sentinels before any worker runs.
func TestRunBatchErrors(t *testing.T) {
	f := mustFormat(csr.FromCOO(matgen.Stencil2D(5)))
	e, err := NewExecutor(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	rows, cols := f.Rows(), f.Cols()
	y := make([]float64, rows*2)
	x := make([]float64, cols*2)
	if err := e.RunBatch(y, x, 0); !errors.Is(err, core.ErrUsage) {
		t.Errorf("k=0: %v, want ErrUsage", err)
	}
	if err := e.RunBatch(y[:rows*2-1], x, 2); !errors.Is(err, core.ErrShape) {
		t.Errorf("short y: %v, want ErrShape", err)
	}
	e.Close()
	if err := e.RunBatch(y, x, 2); !errors.Is(err, core.ErrUsage) {
		t.Errorf("closed: %v, want ErrUsage", err)
	}
}

// TestColBlockRunBatch: the reducing executors run batches per column;
// results must still match the reference.
func TestColBlockRunBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	c := matgen.FEMLike(rng, 250, 5, matgen.Values{})
	const k = 3
	x := testmat.RandVec(rng, c.Cols()*k)
	want := batchReference(c, x, k)

	cs := mustFormat(csc.FromCOO(c))
	ce, err := NewColExecutor(cs, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer ce.Close()
	y := make([]float64, c.Rows()*k)
	if err := ce.RunBatch(y, x, k); err != nil {
		t.Fatal(err)
	}
	testmat.AssertClose(t, "col", y, want, 1e-10)

	be, err := NewBlockExecutor(c, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	for i := range y {
		y[i] = 7
	}
	if err := be.RunBatch(y, x, k); err != nil {
		t.Fatal(err)
	}
	testmat.AssertClose(t, "block", y, want, 1e-10)
}

// TestNewExecOptions covers the options constructor: default and named
// partitions, thread defaulting, collector attachment, and the typed
// unknown-partition error.
func TestNewExecOptions(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	c := matgen.Banded(rng, 120, 6, 4, matgen.Values{})
	f := mustFormat(csr.FromCOO(c))
	x := testmat.RandVec(rng, c.Cols())
	want := reference(c, x)

	fc := mustFormat(csc.FromCOO(c))
	rec := &obs.Recorder{}
	for _, partition := range []string{"", "row", "col"} {
		ff := f
		if partition == "col" {
			ff = fc // column partitioning needs a ColSplitter format
		}
		r, err := New(ff, ExecOptions{Threads: 2, Collector: rec, Partition: partition})
		if err != nil {
			t.Fatalf("%q: %v", partition, err)
		}
		y := make([]float64, c.Rows())
		if err := r.Run(y, x); err != nil {
			t.Fatalf("%q: %v", partition, err)
		}
		testmat.AssertClose(t, "New "+partition, y, want, 1e-10)
		if r.Threads() <= 0 {
			t.Errorf("%q: Threads = %d", partition, r.Threads())
		}
		r.Close()
	}
	if rec.Runs() != 3 {
		t.Errorf("collector saw %d runs, want 3", rec.Runs())
	}

	// Threads <= 0 defaults to GOMAXPROCS rather than erroring.
	r, err := New(f, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r.Close()

	if _, err := New(f, ExecOptions{Partition: "diagonal"}); !errors.Is(err, core.ErrUsage) {
		t.Errorf("unknown partition: %v, want ErrUsage", err)
	}
}

// TestNewStartsTheFormatsOwnExecutor pins New's default: with no
// Partition, a row-splittable format gets the row executor, sym-csr
// the tree-reducing SymExecutor and csc the column executor, and each
// multiplies like the reference.
func TestNewStartsTheFormatsOwnExecutor(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	c := matgen.Symmetrize(matgen.Banded(rng, 150, 5, 4, matgen.Values{}))
	x := testmat.RandVec(rng, c.Cols())
	want := reference(c, x)
	for _, tc := range []struct {
		f    core.Format
		want string
	}{
		{mustFormat(csr.FromCOO(c)), "*parallel.Executor"},
		{mustFormat(sym.FromCOO(c, 1e-12)), "*parallel.SymExecutor"},
		{mustFormat(csc.FromCOO(c)), "*parallel.ColExecutor"},
	} {
		r, err := New(tc.f, ExecOptions{Threads: 3})
		if err != nil {
			t.Fatalf("%s: %v", tc.f.Name(), err)
		}
		if got := fmt.Sprintf("%T", r); got != tc.want {
			t.Errorf("%s: New started %s, want %s", tc.f.Name(), got, tc.want)
		}
		y := make([]float64, c.Rows())
		if err := r.Run(y, x); err != nil {
			t.Fatalf("%s: %v", tc.f.Name(), err)
		}
		testmat.AssertClose(t, "New "+tc.f.Name(), y, want, 1e-10)
		r.Close()
	}
}
