package csrduvi_test

import (
	"math/rand"
	"testing"

	"spmv/internal/core"
	"spmv/internal/csrdu"
	"spmv/internal/matgen"
)

// TestBatchChunkDoesNotAllocate: column and accumulator buffers of a
// panel kernel call live on its stack up to the csrdu.StackPanel width,
// under the dictionary codec too.
func TestBatchChunkDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m, err := fromCOO(matgen.Banded(rng, 300, 20, 7, matgen.Values{Unique: 50}))
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
