package parallel

import (
	"bytes"
	"math/rand"
	rtrace "runtime/trace"
	"testing"

	"spmv/internal/core"
	"spmv/internal/csr"
	"spmv/internal/matgen"
	"spmv/internal/obs"
	"spmv/internal/sym"
)

func traceMatrix(t *testing.T) (*core.COO, core.Format) {
	t.Helper()
	c := matgen.Banded(rand.New(rand.NewSource(5)), 400, 10, 4, matgen.Values{})
	f, err := csr.FromCOO(c)
	if err != nil {
		t.Fatal(err)
	}
	return c, f
}

// collectTrace runs fn between trace.Start and trace.Stop and returns
// the raw trace bytes. Region and task names appear verbatim in the
// trace's string table, so containment checks need no parser.
func collectTrace(t *testing.T, fn func()) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rtrace.Start(&buf); err != nil {
		t.Fatalf("trace.Start: %v", err)
	}
	fn()
	rtrace.Stop()
	return buf.Bytes()
}

// TestTraceRegionsRowExecutor: with a collector attached and tracing
// active, each Run emits a task and per-chunk regions.
func TestTraceRegionsRowExecutor(t *testing.T) {
	_, f := traceMatrix(t)
	e, err := NewExecutor(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.SetCollector(obs.NewRecorder())
	y := make([]float64, f.Rows())
	x := make([]float64, f.Cols())
	data := collectTrace(t, func() {
		if err := e.RunIters(3, y, x); err != nil {
			t.Error(err)
		}
	})
	for _, want := range []string{"spmv.row.run", "spmv.row.chunk0", "spmv.row.chunk1"} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("trace does not contain %q", want)
		}
	}
}

// TestTraceQuietWithoutCollector: the disabled path emits no spmv
// tasks or regions even while tracing is active — the hook hangs off
// the collector nil check, not the trace state.
func TestTraceQuietWithoutCollector(t *testing.T) {
	_, f := traceMatrix(t)
	e, err := NewExecutor(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	y := make([]float64, f.Rows())
	x := make([]float64, f.Cols())
	data := collectTrace(t, func() {
		if err := e.RunIters(3, y, x); err != nil {
			t.Error(err)
		}
	})
	if bytes.Contains(data, []byte("spmv.row")) {
		t.Error("trace contains spmv.row events with no collector attached")
	}
}

// TestTraceRegionsSym: the tree-reducing executor emits its own
// partition-named task and regions.
func TestTraceRegionsSym(t *testing.T) {
	c, _ := traceMatrix(t)
	f, err := sym.FromCOO(matgen.Symmetrize(c), 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewSymExecutor(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.SetCollector(obs.NewRecorder())
	y := make([]float64, f.Rows())
	x := make([]float64, f.Cols())

	data := collectTrace(t, func() {
		if err := e.Run(y, x); err != nil {
			t.Error(err)
		}
	})
	for _, want := range []string{"spmv.sym.run", "spmv.sym.chunk0"} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("trace does not contain %q", want)
		}
	}
}

// TestTraceInactiveStillCollects: without an active trace the
// collector path still works and passes no context to workers.
func TestTraceInactiveStillCollects(t *testing.T) {
	_, f := traceMatrix(t)
	e, err := NewExecutor(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rec := obs.NewRecorder()
	e.SetCollector(rec)
	y := make([]float64, f.Rows())
	x := make([]float64, f.Cols())
	if err := e.RunIters(2, y, x); err != nil {
		t.Fatal(err)
	}
	if rec.Runs() != 2 {
		t.Errorf("recorder saw %d runs, want 2", rec.Runs())
	}
}
