package csr

import (
	"math/rand"
	"testing"

	"spmv/internal/matgen"
)

// widenToVI32 rewrites a matrix's val_ind stream as uint32, so the
// VI32 kernel instantiation gets exercised without needing a matrix
// with > 2^16 genuinely distinct values.
func widenToVI32(m *Matrix) {
	ind := make([]uint32, m.NNZ())
	switch {
	case m.VI8 != nil:
		for k, v := range m.VI8 {
			ind[k] = uint32(v)
		}
	case m.VI16 != nil:
		for k, v := range m.VI16 {
			ind[k] = uint32(v)
		}
	default:
		return
	}
	m.VI8, m.VI16, m.VI32 = nil, nil, ind
}

// TestBatchLoadsValIndOnce is the amortization guarantee behind the
// batched kernel: a k-column multiplication loads each val_ind entry
// exactly once — the load count equals NNZ, independent of k — so one
// unique-table lookup feeds k FMAs.
func TestBatchLoadsValIndOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, tc := range []struct {
		name   string
		unique int
		widen  bool
	}{
		{"vi8", 50, false},
		{"vi16", 2000, false},
		{"vi32", 2000, true},
	} {
		c := matgen.RandomUniform(rng, 600, 1<<18, 12, matgen.Values{Unique: tc.unique})
		m, err := FromCOOVI(c)
		if err != nil {
			t.Fatal(err)
		}
		if tc.widen {
			widenToVI32(m)
		} else {
			wantW := 1
			if tc.unique > 256 {
				wantW = 2
			}
			if m.IndexWidth() != wantW {
				t.Fatalf("%s: built width %d, want %d", tc.name, m.IndexWidth(), wantW)
			}
		}
		ref := make([]float64, m.Rows())
		for _, k := range []int{2, 4, 8} {
			loads := 0
			batchDecodeHook = func(n int) { loads += n }
			y := make([]float64, m.Rows()*k)
			x := make([]float64, m.Cols()*k)
			for i := range x {
				x[i] = rng.Float64()
			}
			m.SpMVBatch(y, x, k)
			batchDecodeHook = nil
			if loads != m.NNZ() {
				t.Errorf("%s k=%d: %d val_ind loads, want %d (one per non-zero)",
					tc.name, k, loads, m.NNZ())
			}
			// Sanity for the widened matrix: column 0 of the panel must
			// match the scalar kernel on the gathered x column.
			xc := make([]float64, m.Cols())
			for j := range xc {
				xc[j] = x[j*k]
			}
			m.SpMV(ref, xc)
			for i, want := range ref {
				if got := y[i*k]; got != want {
					t.Fatalf("%s k=%d: row %d column 0 = %v, want %v", tc.name, k, i, got, want)
					break
				}
			}
		}
	}
}
