package partition

import (
	"errors"
	"testing"

	"spmv/internal/core"
)

// TestSplitPrefixDenseMiddleRow pins the skew bugfix: a row heavier
// than total/parts used to collapse several consecutive boundaries
// onto its start index (each target inside the row resolved to the
// same "first prefix >= target" position, then clamped), producing
// empty middle parts and one part holding the heavy row plus
// everything before it.
//
// Weights 10,10,10,70,10,10,10,10 over 4 parts: the old round-up
// placement produced bounds [0,4,4,5,8] — parts weighing 100, 0, 10,
// 30, Imbalance 2.857 — even though row granularity permits 2.0 (the
// 70-weight row alone over a mean of 35). Nearer-side placement
// reaches that floor.
func TestSplitPrefixDenseMiddleRow(t *testing.T) {
	counts := []int{10, 10, 10, 70, 10, 10, 10, 10}
	p := prefixOf(counts)
	const parts = 4
	b := SplitPrefix(p, parts)
	if b[0] != 0 || b[parts] != len(counts) {
		t.Fatalf("bounds = %v", b)
	}
	// The row-granular floor: the heavy row must sit alone in its part,
	// so max part weight == 70 and Imbalance == 70*4/140 == 2.0. The
	// pre-fix placement measured 2.857 on this input.
	imb := Imbalance(p, b)
	if imb > 2.0+1e-9 {
		t.Errorf("Imbalance = %v, want 2.0 (the heavy-row floor); bounds %v", imb, b)
	}
	// No part may be empty: the collapse symptom was b[1] == b[2].
	for i := 0; i < parts; i++ {
		if b[i] == b[i+1] {
			t.Errorf("part %d is empty: bounds %v", i, b)
		}
	}
}

// TestSplitPrefixHeavyRowNeverWorse checks, across positions of a
// dominant row, that nearer-side placement never exceeds the
// row-granular imbalance floor by more than one light row's weight.
func TestSplitPrefixHeavyRowNeverWorse(t *testing.T) {
	const n, parts = 16, 4
	for pos := 0; pos < n; pos++ {
		counts := make([]int, n)
		for i := range counts {
			counts[i] = 2
		}
		counts[pos] = 90 // 90 of 120 total: 75% in one row
		p := prefixOf(counts)
		b := SplitPrefix(p, parts)
		total := p[n]
		heavy := int64(counts[pos])
		// Floor: the heavy row alone. Tolerance: one light row.
		floor := float64(heavy+2) * parts / float64(total)
		if imb := Imbalance(p, b); imb > floor+1e-9 {
			t.Errorf("pos %d: Imbalance %v exceeds floor %v (bounds %v)", pos, imb, floor, b)
		}
	}
}

// TestImbalanceValidation pins the satellite bugfix: Imbalance used to
// compute parts = -1 from empty bounds, skip the parts == 0 guard and
// return -0; malformed bounds raised a raw index panic on
// prefix[bounds[i]]. Both now panic with a core.ErrUsage-typed error,
// like the splitters.
func TestImbalanceValidation(t *testing.T) {
	mustUsagePanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s did not panic", name)
				return
			}
			err, ok := r.(error)
			if !ok || !errors.Is(err, core.ErrUsage) {
				t.Errorf("%s panicked with %v, want an error wrapping core.ErrUsage", name, r)
			}
		}()
		fn()
	}
	p := prefixOf([]int{1, 2, 3})
	mustUsagePanic("empty bounds", func() { Imbalance(p, nil) })
	mustUsagePanic("empty prefix", func() { Imbalance(nil, []int{0}) })
	mustUsagePanic("decreasing bounds", func() { Imbalance(p, []int{0, 2, 1, 3}) })
	mustUsagePanic("negative bound", func() { Imbalance(p, []int{-1, 3}) })
	mustUsagePanic("bound past prefix", func() { Imbalance(p, []int{0, 4}) })

	// Valid degenerate inputs still return 1, not -0 or a panic.
	if got := Imbalance(p, []int{0}); got != 1 {
		t.Errorf("Imbalance with zero parts = %v, want 1", got)
	}
	if got := Imbalance([]int64{0}, []int{0, 0}); got != 1 {
		t.Errorf("Imbalance on empty items = %v, want 1", got)
	}
}

// TestSplitterConformance runs every splitter over edge-case inputs and
// checks the shared contract: parts+1 boundaries, non-decreasing,
// covering [0, n) exactly.
func TestSplitterConformance(t *testing.T) {
	cases := []struct {
		name   string
		counts []int
	}{
		{"uniform", []int{3, 3, 3, 3, 3, 3, 3, 3}},
		{"zero-weight-rows", []int{0, 5, 0, 0, 5, 0, 5, 0}},
		{"all-zero", []int{0, 0, 0, 0}},
		{"all-weight-in-last-row", []int{0, 0, 0, 0, 0, 0, 0, 100}},
		{"all-weight-in-first-row", []int{100, 0, 0, 0, 0, 0, 0, 0}},
		{"single-row", []int{7}},
		{"empty", nil},
	}
	partCounts := []int{1, 2, 3, 4, 8, 13}
	check := func(t *testing.T, label string, b []int, n, parts int) {
		t.Helper()
		if len(b) != parts+1 {
			t.Fatalf("%s: %d boundaries, want %d (%v)", label, len(b), parts+1, b)
		}
		if b[0] != 0 || b[parts] != n {
			t.Errorf("%s: bounds %v do not cover [0, %d)", label, b, n)
		}
		for i := 0; i < parts; i++ {
			if b[i+1] < b[i] {
				t.Errorf("%s: bounds decrease: %v", label, b)
			}
		}
	}
	for _, c := range cases {
		for _, parts := range partCounts {
			n := len(c.counts)
			prefix := prefixOf(c.counts)

			check(t, c.name+"/Even", Even(n, parts), n, parts)
			check(t, c.name+"/SplitPrefix", SplitPrefix(prefix, parts), n, parts)

			rowPtr := make([]int32, n+1)
			for i, w := range prefix {
				rowPtr[i] = int32(w)
			}
			check(t, c.name+"/SplitRowsByNNZ", SplitRowsByNNZ(rowPtr, parts), n, parts)

			// parts > n is exercised by the smaller cases above; also
			// check the weights are fully accounted for.
			b := SplitPrefix(prefix, parts)
			var sum int64
			for i := 0; i < parts; i++ {
				w := prefix[b[i+1]] - prefix[b[i]]
				if w < 0 {
					t.Errorf("%s/parts=%d: negative part weight (bounds %v)", c.name, parts, b)
				}
				sum += w
			}
			if n > 0 && sum != prefix[n] {
				t.Errorf("%s/parts=%d: part weights sum to %d, want %d", c.name, parts, sum, prefix[n])
			}
		}
	}
}
