package csrduvi

import (
	"math/rand"
	"testing"

	"spmv/internal/core"
	"spmv/internal/csrdu"
	"spmv/internal/matgen"
)

// TestBatchDecodesOncePerUnit: the combined format inherits both
// amortizations — one ctl decode pass per multiplication (checked here
// via the unit count) with the val_ind load fused into the same pass.
func TestBatchDecodesOncePerUnit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := matgen.Banded(rng, 700, 25, 8, matgen.Values{Unique: 100})
	m, err := FromCOO(c)
	if err != nil {
		t.Fatal(err)
	}
	want := m.Stats().Units
	if want == 0 {
		t.Fatal("degenerate test matrix: no units")
	}
	for _, k := range []int{2, 3, 4, 8} {
		units := 0
		batchDecodeHook = func(n int) { units += n }
		y := make([]float64, m.Rows()*k)
		x := make([]float64, m.Cols()*k)
		for i := range x {
			x[i] = rng.Float64()
		}
		m.SpMVBatch(y, x, k)
		batchDecodeHook = nil
		if units != want {
			t.Errorf("k=%d: decoded %d units, want %d (one decode per unit)", k, units, want)
		}
	}
}

// TestBatchChunkDoesNotAllocate: column, value and accumulator buffers
// of a panel kernel call live on its stack up to the csrdu.StackPanel width.
func TestBatchChunkDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m, err := FromCOO(matgen.Banded(rng, 300, 20, 7, matgen.Values{Unique: 50}))
	if err != nil {
		t.Fatal(err)
	}
	ch := m.Split(1)[0].(core.BatchChunk)
	for _, k := range []int{1, 3, 8, csrdu.StackPanel} {
		y := make([]float64, m.Rows()*k)
		x := make([]float64, m.Cols()*k)
		if n := testing.AllocsPerRun(10, func() { ch.SpMVBatch(y, x, k) }); n != 0 {
			t.Errorf("k=%d: %v allocations per chunk call, want 0", k, n)
		}
	}
}
