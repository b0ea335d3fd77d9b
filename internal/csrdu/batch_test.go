package csrdu

import (
	"math/rand"
	"testing"

	"spmv/internal/core"
	"spmv/internal/matgen"
)

// countBatchDecodes installs the decode-counter hook for the duration
// of the test and returns the accumulated unit count.
func countBatchDecodes(t *testing.T) *int {
	t.Helper()
	total := new(int)
	batchDecodeHook = func(units int) { *total += units }
	t.Cleanup(func() { batchDecodeHook = nil })
	return total
}

// TestBatchDecodesOncePerUnit is the amortization guarantee behind the
// batched kernel: a k-column multiplication decodes the ctl stream
// exactly once — the unit count equals Stats().Units, independent of k.
// The dictionary codec inherits it, with the val_ind load fused into
// the same pass.
func TestBatchDecodesOncePerUnit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rle, err := FromCOOOpts(matgen.Banded(rng, 800, 30, 9, matgen.Values{}), Options{RLE: true})
	if err != nil {
		t.Fatal(err)
	}
	vi, err := FromCOOVI(matgen.Banded(rand.New(rand.NewSource(11)), 700, 25, 8, matgen.Values{Unique: 100}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Matrix{rle, vi} {
		t.Run(m.Name(), func(t *testing.T) {
			want := m.Stats().Units
			if want == 0 {
				t.Fatal("degenerate test matrix: no units")
			}
			for _, k := range []int{2, 3, 4, 8} {
				total := countBatchDecodes(t)
				y := make([]float64, m.Rows()*k)
				x := make([]float64, m.Cols()*k)
				for i := range x {
					x[i] = rng.Float64()
				}
				m.SpMVBatch(y, x, k)
				if *total != want {
					t.Errorf("k=%d: decoded %d units, want %d (one decode per unit)", k, *total, want)
				}
			}
		})
	}
}

// TestBatchChunksDecodeOncePerUnit runs the batched kernel over a row
// partition: the chunks' unit counts must sum to the whole matrix's.
func TestBatchChunksDecodeOncePerUnit(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	c := matgen.Banded(rng, 800, 30, 9, matgen.Values{})
	m, err := FromCOO(c)
	if err != nil {
		t.Fatal(err)
	}
	const k = 8
	total := countBatchDecodes(t)
	y := make([]float64, m.Rows()*k)
	x := make([]float64, m.Cols()*k)
	for i := range x {
		x[i] = rng.Float64()
	}
	for _, ch := range m.Split(5) {
		ch.(core.BatchChunk).SpMVBatch(y, x, k)
	}
	if want := m.Stats().Units; *total != want {
		t.Errorf("chunks decoded %d units total, want %d", *total, want)
	}
}

// TestBatchChunkDoesNotAllocate: a panel kernel call on a chunk runs off
// its own stack up to the StackPanel width — the executor calls it once
// per chunk per RunBatch, on the request path.
func TestBatchChunkDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m, err := FromCOO(matgen.Banded(rng, 300, 20, 7, matgen.Values{}))
	if err != nil {
		t.Fatal(err)
	}
	ch := m.Split(1)[0].(core.BatchChunk)
	for _, k := range []int{1, 2, 3, 4, 8, StackPanel} {
		y := make([]float64, m.Rows()*k)
		x := make([]float64, m.Cols()*k)
		if n := testing.AllocsPerRun(10, func() { ch.SpMVBatch(y, x, k) }); n != 0 {
			t.Errorf("k=%d: %v allocations per chunk call, want 0", k, n)
		}
	}
}
