package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// refFinalize is Finalize's oracle: a stable comparison sort on (i, j),
// then a left-to-right fold of each run of equal coordinates.
func refFinalize(c *COO) *COO {
	p := make([]int, len(c.V))
	for k := range p {
		p[k] = k
	}
	sort.SliceStable(p, func(a, b int) bool {
		ka, kb := p[a], p[b]
		if c.I[ka] != c.I[kb] {
			return c.I[ka] < c.I[kb]
		}
		return c.J[ka] < c.J[kb]
	})
	out := &COO{rows: c.rows, cols: c.cols, finalized: true}
	for _, k := range p {
		if w := len(out.V) - 1; w >= 0 && out.I[w] == c.I[k] && out.J[w] == c.J[k] {
			out.V[w] += c.V[k]
			continue
		}
		out.I = append(out.I, c.I[k])
		out.J = append(out.J, c.J[k])
		out.V = append(out.V, c.V[k])
	}
	return out
}

// checkFinalize finalizes a copy of c and compares it, bit for bit,
// with the oracle's result.
func checkFinalize(t *testing.T, c *COO) {
	t.Helper()
	want := refFinalize(c)
	got := c.Clone()
	got.Finalize()
	if got.Equal(want) {
		return
	}
	if got.Len() != want.Len() {
		t.Fatalf("Finalize kept %d entries, want %d", got.Len(), want.Len())
	}
	for k := range want.V {
		gi, gj, gv := got.At(k)
		wi, wj, wv := want.At(k)
		if gi != wi || gj != wj || !SameBits(gv, wv) {
			t.Fatalf("entry %d = (%d,%d,%v), want (%d,%d,%v)", k, gi, gj, gv, wi, wj, wv)
		}
	}
}

func TestFinalizeMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := func(rows, cols, n int) *COO {
		c := NewCOO(rows, cols)
		for k := 0; k < n; k++ {
			c.Add(rng.Intn(rows), rng.Intn(cols), rng.NormFloat64())
		}
		return c
	}
	// stencil is an n×n 5-point pattern with each row's diagonal first,
	// added row by row or, transposed, column by column.
	stencil := func(n int, colMajor bool) *COO {
		c := NewCOO(n*n, n*n)
		for r := 0; r < n*n; r++ {
			for _, d := range []int{0, -n, -1, 1, n} {
				if q := r + d; q >= 0 && q < n*n {
					if colMajor {
						c.Add(q, r, float64(r*5+d))
					} else {
						c.Add(r, q, float64(r*5+d))
					}
				}
			}
		}
		return c
	}
	// dups repeats every entry of a small matrix k times, interleaved.
	dups := func(k int) *COO {
		c := NewCOO(9, 9)
		for rep := 0; rep < k; rep++ {
			for e := 0; e < 20; e++ {
				c.Add(8-e%9, (e*7)%9, float64(rep)+rng.Float64())
			}
		}
		return c
	}
	longRow := func(n int) *COO {
		c := NewCOO(3, 4*n)
		for k := 0; k < n; k++ {
			c.Add(1, rng.Intn(4*n), rng.NormFloat64())
			c.Add(rng.Intn(3), rng.Intn(4*n), rng.NormFloat64())
		}
		return c
	}
	emptyRows := NewCOO(50, 50)
	for _, i := range []int{40, 3, 40, 17, 3, 49} {
		emptyRows.Add(i, 49-i, float64(i))
	}
	one := NewCOO(1, 1)
	one.Add(0, 0, 2)
	cases := []struct {
		name string
		c    *COO
	}{
		{"shuffled-rows", random(200, 300, 3000)},
		{"row-major", stencil(20, false)},
		{"column-major", stencil(20, true)},
		{"dup-3way", dups(3)},
		{"dup-7way", dups(7)},
		{"empty-rows", emptyRows},
		{"nnz-0", NewCOO(4, 4)},
		{"nnz-0-huge", NewCOO(1<<31-1, 1<<31-1)},
		{"1x1", one},
		{"rows-far-above-nnz", random(1<<31-1, 1<<20, 50)},
		{"rows-above-nnz-two-digits", random(1<<24, 64, 70000)},
		{"long-row", longRow(5 * shortRow)},
		{"row-at-cutoff", longRow(shortRow)},
		{"row-past-cutoff", longRow(shortRow + 1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkFinalize(t, tc.c) })
	}
}

// TestFinalizeFoldsInInsertionOrder: (1e17 + 1) rounds back to 1e17,
// so summing in insertion order cancels to exactly 0, while summing the
// two large values first leaves 1. The second matrix adds the same
// values with the cancelling pair first and must give 1. Each runs as
// a short row, a long row and after a reorder by row.
func TestFinalizeFoldsInInsertionOrder(t *testing.T) {
	for _, tc := range []struct {
		vals []float64
		want float64
	}{
		{[]float64{1e17, 1, -1e17}, 0},
		{[]float64{1e17, -1e17, 1}, 1},
	} {
		for _, shape := range []string{"short-row", "long-row", "rows-unsorted"} {
			c := NewCOO(3, 4*shortRow)
			if shape == "rows-unsorted" {
				c.Add(2, 5, 1)
			}
			for k, v := range tc.vals {
				if shape == "long-row" {
					for j := 4*shortRow - 1; j > 4*shortRow-1-shortRow; j-- {
						c.Add(0, j, float64(k))
					}
				}
				c.Add(0, 0, v)
			}
			c.Finalize()
			if i, j, v := c.At(0); i != 0 || j != 0 || !SameBits(v, tc.want) {
				t.Errorf("%s %v: (0,0) folds to (%d,%d,%v), want %v", shape, tc.vals, i, j, v, tc.want)
			}
		}
	}
}

// TestFinalizeMemoryIgnoresDimensions: a header may claim 2^31-1 rows
// and columns for three entries. Finalize, and Transpose, must not
// allocate by the claim: a counting sort over rows or columns would
// cost 16 GB here.
func TestFinalizeMemoryIgnoresDimensions(t *testing.T) {
	c := NewCOO(1<<31-1, 1<<31-1)
	c.Add(1<<31-2, 7, 1)
	c.Add(0, 1<<31-2, 2)
	c.Add(1<<30, 0, 3)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.Finalize()
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d >= 64<<10 {
		t.Errorf("Finalize of 3 entries allocated %d bytes, want < 64 KiB", d)
	}
	if i, _, _ := c.At(0); i != 0 || c.Len() != 3 {
		t.Errorf("not sorted: first row %d, %d entries", i, c.Len())
	}
	runtime.ReadMemStats(&before)
	ct := c.Transpose()
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d >= 64<<10 {
		t.Errorf("Transpose of 3 entries allocated %d bytes, want < 64 KiB", d)
	}
	if i, _, _ := ct.At(0); i != 0 || ct.Len() != 3 {
		t.Errorf("transpose not sorted: first row %d, %d entries", i, ct.Len())
	}
}

// FuzzFinalize holds Finalize to the stable-sort oracle. The input is a
// shape (rows and columns up to 2^31-1) and a list of 9-byte entries:
// row, column, and an index into a value table chosen so that folds
// cancel or round differently in a different order.
func FuzzFinalize(f *testing.F) {
	f.Add([]byte{0, 0, 0, 8, 0, 0, 0, 8, 3, 0, 0, 0, 1, 0, 0, 0, 1, 0, 3, 0, 0, 0, 1, 0, 0, 0, 1, 1, 3, 0, 0, 0, 1, 0, 0, 0, 1, 2})
	f.Add([]byte{127, 255, 255, 255, 127, 255, 255, 254, 127, 0, 0, 1, 0, 0, 0, 2, 4, 0, 0, 0, 3, 0, 0, 0, 0, 5})
	vals := []float64{1e17, 1, -1e17, 0.5, math.Copysign(0, -1), 3, math.Inf(1), math.NaN()}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 8 {
			return
		}
		rows := 1 + int(binary.BigEndian.Uint32(b)%(1<<31-1))
		cols := 1 + int(binary.BigEndian.Uint32(b[4:])%(1<<31-1))
		c := NewCOO(rows, cols)
		for e := b[8:]; len(e) >= 9; e = e[9:] {
			c.Add(int(binary.BigEndian.Uint32(e)%uint32(rows)), int(binary.BigEndian.Uint32(e[4:])%uint32(cols)), vals[e[8]%8])
		}
		checkFinalize(t, c)
	})
}

// BenchmarkFinalize times Finalize on four orders of arrival, about 2 M
// triplets each: a 7-point stencil with each row's diagonal first (the
// generators' order: insertion sorts of seven), 1024 random columns per
// row (keyed sorts), one 1.5 M-entry row, and a 5-point stencil added
// column by column (a reorder by row, as for a column-major Matrix
// Market file). It reports ns per triplet.
func BenchmarkFinalize(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	shapes := []struct {
		name       string
		rows, cols int
		add        func(c *COO)
	}{
		{"stencil7-diag-first", 64 * 64 * 64, 64 * 64 * 64, func(c *COO) {
			n := 64
			for r := 0; r < n*n*n; r++ {
				c.Add(r, r, 6)
				for _, d := range []int{-n * n, n * n, -n, n, -1, 1} {
					if q := r + d; q >= 0 && q < n*n*n {
						c.Add(r, q, -1)
					}
				}
			}
		}},
		{"random-1024-per-row", 2048, 1 << 20, func(c *COO) {
			for r := 0; r < 2048; r++ {
				for k := 0; k < 1024; k++ {
					c.Add(r, rng.Intn(1<<20), 1)
				}
			}
		}},
		{"one-long-row", 4, 1 << 22, func(c *COO) {
			for k := 0; k < 1500000; k++ {
				c.Add(2, rng.Intn(1<<22), 1)
			}
		}},
		{"column-major-stencil5", 1 << 20, 1 << 20, func(c *COO) {
			n := 1 << 10
			for col := 0; col < n*n; col++ {
				for _, d := range []int{-n, -1, 0, 1, n} {
					if q := col + d; q >= 0 && q < n*n {
						c.Add(q, col, float64(d))
					}
				}
			}
		}},
	}
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			tmpl := NewCOO(s.rows, s.cols)
			s.add(tmpl)
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				b.StopTimer()
				c := tmpl.Clone()
				b.StartTimer()
				c.Finalize()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tmpl.Len()), "ns/nnz")
		})
	}
}
