package parallel

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"spmv/internal/core"
	"spmv/internal/csr"
	"spmv/internal/formats"
	"spmv/internal/matgen"
	"spmv/internal/obs"
	"spmv/internal/testmat"
)

// sentinelY is a NaN no kernel produces from finite inputs: a y entry
// still holding it after a run was never written.
var sentinelY = math.Float64frombits(0x7ff8_dead_beef_0002)

// csr32Rows lists a csr32 matrix's non-zeros with their stored float32
// values, the summation input of its kernel.
type csr32Rows struct{ *csr.Matrix32 }

func (m csr32Rows) ForEach(fn func(i, j int, v float64)) {
	for i := 0; i < m.Rows(); i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			fn(i, int(m.ColInd[p]), float64(m.Values[p]))
		}
	}
}

// rowReference is the bitwise reference for f built from c: each row
// summed left to right from +0 over the values f stores.
func rowReference(f core.Format, c *core.COO) func(x []float64, k int) []float64 {
	switch m := f.(type) {
	case testmat.RowMajor:
		return testmat.Reference(m)
	case *csr.Matrix32:
		return testmat.Reference(csr32Rows{m})
	}
	// csr16 and ell store the float64 values of c in row order.
	return testmat.Reference(mustFormat(csr.FromCOO(c)).(*csr.Matrix))
}

// latticeCases is testmat's corpus plus a skewed matrix whose dense
// first row holds 40% of the non-zeros.
func latticeCases() []testmat.Case {
	rng := rand.New(rand.NewSource(39))
	return append(testmat.Corpus(), testmat.Case{Name: "skewed-dense-row",
		COO: matgen.SkewedRows(rng, 300, 4, 0, 0.4, matgen.Values{})})
}

// checkPanel runs mul into a sentinel-filled panel and compares every
// entry bitwise with want.
func checkPanel(t *testing.T, what string, want []float64, mul func(y []float64) error) {
	t.Helper()
	y := make([]float64, len(want))
	for i := range y {
		y[i] = sentinelY
	}
	if err := mul(y); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	for i := range y {
		if math.Float64bits(y[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: y[%d] = %v (%#x), want %v (%#x)",
				what, i, y[i], math.Float64bits(y[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestExecutorLattice runs every registry format that splits by rows
// through the row executor, for T in {1,2,3,7} and k in {1,3,4,8}, on
// the corpus plus a skewed matrix, and holds y bitwise to the serial
// row-order reference: once with the executor New builds and once cut
// into units of 8 non-zeros, so that the small matrices also run as
// many units claimed by several workers. csr-vi and csr-du-vi must run
// under both value codecs: the corpus holds matrices whose values a
// dictionary indexes and matrices whose values it cannot pay for.
func TestExecutorLattice(t *testing.T) {
	for _, name := range formats.Names() {
		t.Run(name, func(t *testing.T) {
			built := 0
			widths := map[int]bool{} // val_ind widths built; 0 is the plain codec
			for _, tc := range latticeCases() {
				f, err := formats.Build(name, tc.COO)
				if err != nil {
					continue // ell refuses heavy padding, sym-csr non-square input
				}
				if _, ok := f.(core.Splitter); !ok {
					t.Skipf("%s does not split by rows", name)
				}
				built++
				if vi, ok := f.(interface{ IndexWidth() int }); ok {
					widths[vi.IndexWidth()] = true
				}
				ref := rowReference(f, tc.COO)
				rng := rand.New(rand.NewSource(int64(f.NNZ()) + 1))
				for _, k := range []int{1, 3, 4, 8} {
					x := testmat.RandVec(rng, f.Cols()*k)
					want := ref(x, k)
					for _, threads := range []int{1, 2, 3, 7} {
						r, err := New(f, ExecOptions{Threads: threads})
						if err != nil {
							t.Fatal(err)
						}
						small, err := newExecutor(f, threads, 8)
						if err != nil {
							t.Fatal(err)
						}
						for _, e := range []*Executor{r.(*Executor), small} {
							what := fmt.Sprintf("%s T=%d k=%d units=%d", tc.Name, threads, k, len(e.units))
							checkPanel(t, what, want, func(y []float64) error {
								if k == 1 {
									return e.Run(y, x)
								}
								return e.RunBatch(y, x, k)
							})
							e.Close()
						}
					}
				}
			}
			if built < 10 {
				t.Errorf("%s built %d of %d lattice matrices", name, built, len(latticeCases()))
			}
			if (name == "csr-vi" || name == "csr-du-vi") && (!widths[0] || len(widths) < 2) {
				t.Errorf("%s built val_ind widths %v, want the plain codec and a dictionary", name, widths)
			}
		})
	}
}

// TestScheduleIndependence runs the units of one executor in unit
// order, reversed and shuffled — the claim orders a real run can only
// approach — and checks y is the same bits each time, for the scalar
// and the fused panel kernels.
func TestScheduleIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	c := matgen.SkewedRows(rng, 2000, 6, 0, 0.3, matgen.Values{Unique: 40})
	for _, name := range []string{"csr", "csr-vi", "csr-du", "csr-du-vi"} {
		f, err := formats.Build(name, c)
		if err != nil {
			t.Fatal(err)
		}
		want := rowReference(f, c)
		for _, threads := range []int{1, 3} {
			e, err := newExecutor(f, threads, 64)
			if err != nil {
				t.Fatal(err)
			}
			n := len(e.units)
			if n < 50 {
				t.Fatalf("%s: %d units, want many", name, n)
			}
			reversed := make([]int, n)
			for i := range reversed {
				reversed[i] = n - 1 - i
			}
			orders := map[string][]int{"unit": nil, "reversed": reversed, "shuffled": rng.Perm(n)}
			for _, k := range []int{1, 8} {
				x := testmat.RandVec(rng, c.Cols()*k)
				ref := want(x, k)
				for oname, order := range orders {
					e.order = order
					what := fmt.Sprintf("%s T=%d k=%d %s order", name, threads, k, oname)
					checkPanel(t, what, ref, func(y []float64) error { return e.RunBatch(y, x, k) })
				}
			}
			e.Close()
		}
	}
}

// TestExecutorUnitStats checks the row executor's telemetry: one stat
// per worker with no row range, and the units and non-zeros the
// workers report adding up to the whole matrix on every run.
func TestExecutorUnitStats(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	c := matgen.SkewedRows(rng, 400, 3, 200, 0.4, matgen.Values{})
	f, err := csr.FromCOO(c)
	if err != nil {
		t.Fatal(err)
	}
	e, err := newExecutor(f, 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rec := obs.NewRecorder()
	e.SetCollector(rec)
	x := testmat.RandVec(rng, c.Cols())
	y := make([]float64, c.Rows())
	for run := 1; run <= 3; run++ {
		if err := e.Run(y, x); err != nil {
			t.Fatal(err)
		}
		s := rec.Snapshot()
		checkRunStats(t, s, run, e.Threads(), f.NNZ(), "row")
		units := 0
		for _, cs := range s.Last.Chunks {
			units += cs.Units
			if cs.Lo != 0 || cs.Hi != 0 {
				t.Errorf("worker %d reports rows [%d,%d), want none", cs.Worker, cs.Lo, cs.Hi)
			}
		}
		if units != len(e.units) {
			t.Errorf("run %d: workers ran %d units, want %d", run, units, len(e.units))
		}
	}
	testmat.AssertClose(t, "unit stats", y, reference(c, x), 1e-10)
}

// TestExecutorUnitCount pins how a matrix is cut: max(T, ⌈nnz/budget⌉)
// requested units, never a split row, and min(T, units) workers.
func TestExecutorUnitCount(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	c := matgen.SkewedRows(rng, 1000, 5, 0, 0.5, matgen.Values{})
	f := mustFormat(csr.FromCOO(c))
	for _, tc := range []struct{ threads, budget, wantMin, wantMax int }{
		{2, unitNNZ, 2, 2},           // small matrix: one unit per worker
		{3, 100, 2, 100},             // the dense row holds half: Split drops ranges inside it
		{1, 8, 1, (f.NNZ() + 7) / 8}, // one worker claims them all
	} {
		e, err := newExecutor(f, tc.threads, tc.budget)
		if err != nil {
			t.Fatal(err)
		}
		n := len(e.units)
		if n < tc.wantMin || n > tc.wantMax {
			t.Errorf("T=%d budget=%d: %d units, want [%d,%d]", tc.threads, tc.budget, n, tc.wantMin, tc.wantMax)
		}
		if e.Threads() != min(tc.threads, n) {
			t.Errorf("T=%d budget=%d: %d workers over %d units", tc.threads, tc.budget, e.Threads(), n)
		}
		next := 0
		for _, u := range e.units {
			lo, hi := u.RowRange()
			if lo != next || hi <= lo {
				t.Fatalf("T=%d budget=%d: unit rows [%d,%d) after row %d", tc.threads, tc.budget, lo, hi, next)
			}
			next = hi
		}
		if next != f.Rows() {
			t.Errorf("units end at row %d of %d", next, f.Rows())
		}
		e.Close()
	}
}

// TestExecutorRunAllocatesNothing pins that a run of many units —
// counter reset, error slots, claims — allocates nothing, scalar or
// fused, with no collector attached.
func TestExecutorRunAllocatesNothing(t *testing.T) {
	c := matgen.Stencil2D(40)
	f := mustFormat(csr.FromCOO(c))
	e, err := newExecutor(f, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const k = 4
	x := testmat.RandVec(rand.New(rand.NewSource(5)), c.Cols()*k)
	y := make([]float64, c.Rows()*k)
	run := func() {
		if err := e.Run(y[:c.Rows()], x[:c.Cols()]); err != nil {
			t.Fatal(err)
		}
		if err := e.RunBatch(y, x, k); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Errorf("a run over %d units allocates %v times", len(e.units), n)
	}
}

func TestNewWithStealAndNNZOptions(t *testing.T) {
	f, err := csr.FromCOO(matgen.Stencil2D(10))
	if err != nil {
		t.Fatal(err)
	}
	// The deprecated Steal option builds the self-scheduled row executor.
	r, err := New(f, ExecOptions{Threads: 2, Steal: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.(*Executor); !ok {
		t.Errorf("Steal option built %T", r)
	}
	r.Close()

	r, err = New(f, ExecOptions{Threads: 2, Partition: "nnz"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.(*NNZExecutor); !ok {
		t.Errorf("nnz partition built %T", r)
	}
	r.Close()

	if _, err := New(f, ExecOptions{Threads: 2, Partition: "col", Steal: true}); !errors.Is(err, core.ErrUsage) {
		t.Errorf("Steal+col = %v, want core.ErrUsage", err)
	}
	if _, err := New(f, ExecOptions{Threads: 2, Partition: "bogus"}); !errors.Is(err, core.ErrUsage) {
		t.Errorf("unknown partition = %v, want core.ErrUsage", err)
	}
}

// failEveryFormat is a minimal row-partitionable format whose kernel
// panics on its Nth SpMV call — the FailEvery hook for exercising the
// executors' failure paths without corrupting a real matrix. Its
// chunks deliberately do not implement core.BatchChunk, forcing the
// per-column RunBatch fallback.
type failEveryFormat struct {
	n     int
	fail  int // panic on this (1-based) kernel call; 0 ⇒ never
	calls int
}

func (f *failEveryFormat) Name() string     { return "fail-every" }
func (f *failEveryFormat) Rows() int        { return f.n }
func (f *failEveryFormat) Cols() int        { return f.n }
func (f *failEveryFormat) NNZ() int         { return f.n }
func (f *failEveryFormat) SizeBytes() int64 { return int64(f.n) }
func (f *failEveryFormat) SpMV(y, x []float64) {
	copy(y[:f.n], x[:f.n])
}

func (f *failEveryFormat) Split(int) []core.Chunk {
	return []core.Chunk{&failEveryChunk{f: f}}
}

type failEveryChunk struct{ f *failEveryFormat }

func (c *failEveryChunk) RowRange() (int, int) { return 0, c.f.n }
func (c *failEveryChunk) NNZ() int             { return c.f.n }
func (c *failEveryChunk) SpMV(y, x []float64) {
	c.f.calls++
	if c.f.calls == c.f.fail {
		panic("fail-every: injected kernel failure")
	}
	copy(y[:c.f.n], x[:c.f.n])
}

// TestRunBatchFallbackReportsFailedRun pins the satellite bugfix: the
// per-column RunBatch fallback used to return straight out of the
// column loop on a failed column, skipping the collector's RunDone —
// a failing batch left no RunStat at all. The fixed path emits exactly
// one RunStat with Err set and Vectors = k.
func TestRunBatchFallbackReportsFailedRun(t *testing.T) {
	f := &failEveryFormat{n: 8, fail: 2} // column 0 succeeds, column 1 panics
	e, err := NewExecutor(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rec := obs.NewRecorder()
	e.SetCollector(rec)

	const k = 3
	y := make([]float64, f.n*k)
	x := make([]float64, f.n*k)
	batchErr := e.RunBatch(y, x, k)
	if batchErr == nil {
		t.Fatal("RunBatch with injected failure succeeded")
	}
	if !strings.Contains(batchErr.Error(), "batch column 1") {
		t.Errorf("error %q does not name the failed column", batchErr)
	}
	if got := rec.Runs(); got != 1 {
		t.Fatalf("recorder saw %d runs after failed batch, want 1", got)
	}
	s := rec.Snapshot()
	if s.Last.Err == "" || !strings.Contains(s.Last.Err, "batch column 1") {
		t.Errorf("RunStat.Err = %q, want the batch failure", s.Last.Err)
	}
	if s.Last.Vectors != k {
		t.Errorf("RunStat.Vectors = %d, want %d", s.Last.Vectors, k)
	}
}

// BenchmarkRowSchedule times one CSR multiply through the row executor
// at GOMAXPROCS workers on the benchmark's four matrix shapes, scaled
// down — the 7-point stencil, the skewed matrix with its dense row 0,
// the served random matrix and CG's 5-point stencil — with units of
// unitNNZ non-zeros and of a quarter and four times that. It is the
// sweep unitNNZ was picked from; run it with -benchtime=20x -count=5.
func BenchmarkRowSchedule(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	shapes := []struct {
		name string
		c    *core.COO
	}{
		{"stencil3d", matgen.Stencil3D(64)},
		{"skewed", matgen.SkewedRows(rng, 375_000, 8, 0, 0.2, matgen.Values{})},
		{"random", matgen.RandomUniform(rng, 4096, 4096, 512, matgen.Values{})},
		{"stencil2d", matgen.Stencil2D(256)},
	}
	for _, sh := range shapes {
		f := mustFormat(csr.FromCOO(sh.c))
		x := testmat.RandVec(rng, f.Cols())
		y := make([]float64, f.Rows())
		for _, budget := range []int{unitNNZ / 4, unitNNZ, 4 * unitNNZ} {
			b.Run(fmt.Sprintf("%s/budget=%d", sh.name, budget), func(b *testing.B) {
				e, err := newExecutor(f, runtime.GOMAXPROCS(0), budget)
				if err != nil {
					b.Fatal(err)
				}
				defer e.Close()
				if err := e.Run(y, x); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := e.Run(y, x); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/op")
			})
		}
	}
}
