package partition

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEvenBasic(t *testing.T) {
	b := Even(10, 4)
	want := []int{0, 2, 5, 7, 10}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("Even(10,4) = %v, want %v", b, want)
		}
	}
}

func TestEvenMorePartsThanItems(t *testing.T) {
	b := Even(2, 5)
	if b[0] != 0 || b[5] != 2 {
		t.Fatalf("Even(2,5) = %v", b)
	}
	for i := 0; i < 5; i++ {
		if b[i+1] < b[i] {
			t.Fatalf("Even(2,5) boundaries decrease: %v", b)
		}
	}
}

func TestEvenPanics(t *testing.T) {
	for _, c := range []struct{ n, p int }{{-1, 2}, {5, 0}, {5, -3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Even(%d,%d) did not panic", c.n, c.p)
				}
			}()
			Even(c.n, c.p)
		}()
	}
}

func prefixOf(counts []int) []int64 {
	p := make([]int64, len(counts)+1)
	for i, c := range counts {
		p[i+1] = p[i] + int64(c)
	}
	return p
}

func TestSplitPrefixCoversAndMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		parts := 1 + rng.Intn(16)
		counts := make([]int, n)
		for i := range counts {
			counts[i] = rng.Intn(50)
		}
		p := prefixOf(counts)
		b := SplitPrefix(p, parts)
		if len(b) != parts+1 || b[0] != 0 || b[parts] != n {
			return false
		}
		for i := 0; i < parts; i++ {
			if b[i+1] < b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSplitPrefixBalance(t *testing.T) {
	// Uniform weights must split within one item of perfect balance.
	counts := make([]int, 1000)
	for i := range counts {
		counts[i] = 3
	}
	p := prefixOf(counts)
	for _, parts := range []int{1, 2, 4, 8, 7} {
		b := SplitPrefix(p, parts)
		imb := Imbalance(p, b)
		if imb > 1.02 {
			t.Errorf("parts=%d imbalance = %v, want <= 1.02", parts, imb)
		}
		_ = b
	}
}

func TestSplitPrefixSkewed(t *testing.T) {
	// One huge row: it must end up alone-ish, and all boundaries stay valid.
	counts := []int{1, 1, 1000, 1, 1, 1}
	p := prefixOf(counts)
	b := SplitPrefix(p, 4)
	if b[0] != 0 || b[4] != 6 {
		t.Fatalf("bounds = %v", b)
	}
	// The part containing the huge row carries nearly all weight; others are tiny.
	var bigParts int
	for i := 0; i < 4; i++ {
		if p[b[i+1]]-p[b[i]] >= 1000 {
			bigParts++
		}
	}
	if bigParts != 1 {
		t.Errorf("expected exactly 1 part with the heavy row, got %d (bounds %v)", bigParts, b)
	}
}

func TestSplitPrefixPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SplitPrefix with bad prefix did not panic")
			}
		}()
		SplitPrefix([]int64{5, 6}, 2)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SplitPrefix with parts=0 did not panic")
			}
		}()
		SplitPrefix([]int64{0, 1}, 0)
	}()
}

func TestSplitRowsByNNZ(t *testing.T) {
	rowPtr := []int32{0, 4, 4, 8, 12, 12, 16}
	b := SplitRowsByNNZ(rowPtr, 4)
	if b[0] != 0 || b[len(b)-1] != 6 {
		t.Fatalf("bounds = %v", b)
	}
	p := make([]int64, len(rowPtr))
	for i, v := range rowPtr {
		p[i] = int64(v)
	}
	if imb := Imbalance(p, b); imb > 1.01 {
		t.Errorf("imbalance = %v on perfectly divisible input", imb)
	}
}

func TestEvenZeroItems(t *testing.T) {
	// n == 0 (an empty matrix) must yield all-zero boundaries, not panic.
	b := Even(0, 4)
	for i, v := range b {
		if v != 0 {
			t.Fatalf("Even(0,4)[%d] = %d, want 0", i, v)
		}
	}
}

func TestSplitPrefixMorePartsThanItems(t *testing.T) {
	// parts > n: extra parts come out empty, boundaries stay monotone.
	p := prefixOf([]int{5, 3})
	b := SplitPrefix(p, 7)
	if len(b) != 8 || b[0] != 0 || b[7] != 2 {
		t.Fatalf("bounds = %v", b)
	}
	for i := 0; i < 7; i++ {
		if b[i+1] < b[i] {
			t.Fatalf("boundaries decrease: %v", b)
		}
	}
}

func TestSplitPrefixEmpty(t *testing.T) {
	// n == 0 with a valid prefix ({0}): every part is the empty range.
	b := SplitPrefix([]int64{0}, 3)
	for i, v := range b {
		if v != 0 {
			t.Fatalf("SplitPrefix(empty,3)[%d] = %d, want 0", i, v)
		}
	}
}

func TestSplitRowsByNNZSingleRow(t *testing.T) {
	// A single-row matrix split over many threads: one part gets the row,
	// the rest are empty, and all weight is accounted for.
	rowPtr := []int32{0, 9}
	b := SplitRowsByNNZ(rowPtr, 4)
	if len(b) != 5 || b[0] != 0 || b[4] != 1 {
		t.Fatalf("bounds = %v", b)
	}
	p := []int64{0, 9}
	var rowParts int
	for i := 0; i < 4; i++ {
		if p[b[i+1]]-p[b[i]] == 9 {
			rowParts++
		}
	}
	if rowParts != 1 {
		t.Errorf("expected exactly 1 part holding the row, bounds %v", b)
	}
}

func TestImbalanceZeroWeight(t *testing.T) {
	p := []int64{0, 0, 0}
	if got := Imbalance(p, []int{0, 1, 2}); got != 1 {
		t.Errorf("Imbalance on zero weight = %v, want 1", got)
	}
}

func TestImbalancePerfect(t *testing.T) {
	p := prefixOf([]int{2, 2, 2, 2})
	if got := Imbalance(p, []int{0, 2, 4}); got != 1 {
		t.Errorf("Imbalance = %v, want 1", got)
	}
}
