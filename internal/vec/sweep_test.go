package vec

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// sweepSizes straddle the block boundaries: shorter than one block,
// exact multiples, and a ragged tail.
var sweepSizes = []int{0, 1, 5, Block - 1, Block, Block + 1, 3*Block + 17, 8 * Block}

func randVecs(seed int64, n, k int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, k)
	for j := range out {
		out[j] = make([]float64, n)
		for i := range out[j] {
			out[j][i] = rng.NormFloat64()
		}
	}
	return out
}

func TestSplitCoversInBlocks(t *testing.T) {
	for _, n := range sweepSizes {
		for _, workers := range []int{1, 2, 3, 7, 64} {
			next, nextB := 0, 0
			for w := 0; w < workers; w++ {
				lo, hi, blo, bhi := Split(n, w, workers)
				if lo != next || blo != nextB || hi < lo || lo%Block != 0 || (hi%Block != 0 && hi != n) {
					t.Fatalf("n=%d workers=%d w=%d: share [%d,%d) blocks [%d,%d) after %d/%d", n, workers, w, lo, hi, blo, bhi, next, nextB)
				}
				if bhi-blo != Blocks(hi-lo) {
					t.Fatalf("n=%d workers=%d w=%d: %d partials for %d elements", n, workers, w, bhi-blo, hi-lo)
				}
				next, nextB = hi, bhi
			}
			if next != n || nextB != Blocks(n) {
				t.Fatalf("n=%d workers=%d: covered %d elements, %d blocks", n, workers, next, nextB)
			}
		}
	}
}

// blockedDot is the reduction the solvers use: per-block partials over
// a split, summed in index order.
func blockedDot(a, b []float64, workers int) float64 {
	part := make([]float64, Blocks(len(a)))
	for w := 0; w < workers; w++ {
		lo, hi, blo, bhi := Split(len(a), w, workers)
		DotBlocks(part[blo:bhi], a[lo:hi], b[lo:hi])
	}
	return SumBlocks(part)
}

func TestBlockedDotIndependentOfSplit(t *testing.T) {
	for _, n := range sweepSizes {
		v := randVecs(int64(n), n, 2)
		want := blockedDot(v[0], v[1], 1)
		for _, workers := range []int{2, 3, 7} {
			if got := blockedDot(v[0], v[1], workers); got != want {
				t.Errorf("n=%d workers=%d: %v != %v (must be bitwise equal)", n, workers, got, want)
			}
		}
	}
}

// TestBlockedDotWithinBound checks the blocked reduction against an
// exact math/big sum: |error| <= n*eps*|a|·|b|, the standard bound for
// any summation order.
func TestBlockedDotWithinBound(t *testing.T) {
	const eps = 1.0 / (1 << 53)
	for _, n := range sweepSizes {
		v := randVecs(int64(n)+100, n, 2)
		exact, abs := new(big.Float).SetPrec(2000), 0.0
		for i := range v[0] {
			exact.Add(exact, new(big.Float).SetPrec(2000).Mul(big.NewFloat(v[0][i]), big.NewFloat(v[1][i])))
			abs += math.Abs(v[0][i] * v[1][i])
		}
		got := blockedDot(v[0], v[1], 3)
		diff, _ := new(big.Float).Sub(big.NewFloat(got), exact).Float64()
		if bound := float64(n) * eps * abs; math.Abs(diff) > bound {
			t.Errorf("n=%d: blocked dot off by %g, bound %g", n, diff, bound)
		}
	}
}

func TestAxpyDotBlocks(t *testing.T) {
	for _, n := range sweepSizes {
		v := randVecs(int64(n)+200, n, 2)
		x, y := v[0], v[1]
		want := append([]float64(nil), y...)
		for i := range want {
			want[i] += -0.75 * x[i]
		}
		part := make([]float64, Blocks(n))
		AxpyDotBlocks(part, -0.75, x, y)
		for i := range want {
			if y[i] != want[i] {
				t.Fatalf("n=%d: y[%d] = %v, want %v", n, i, y[i], want[i])
			}
		}
		// The fused norm is the blocked dot of the updated y with itself.
		if got, ref := SumBlocks(part), blockedDot(y, y, 1); got != ref {
			t.Errorf("n=%d: fused y·y = %v, blocked dot = %v", n, got, ref)
		}
	}
}

func TestAxpyXpbyAndHadamard(t *testing.T) {
	for _, n := range sweepSizes {
		v := randVecs(int64(n)+300, n, 3)
		x, p, z := v[0], v[1], v[2]
		wantX, wantP := make([]float64, n), make([]float64, n)
		for i := range x {
			wantX[i] = x[i] + 0.5*p[i]
			wantP[i] = z[i] + 0.25*p[i]
		}
		AxpyXpby(0.5, 0.25, x, p, z)
		h := make([]float64, n)
		Hadamard(h, x, p)
		for i := range x {
			if x[i] != wantX[i] || p[i] != wantP[i] || h[i] != x[i]*p[i] {
				t.Fatalf("n=%d i=%d: x %v/%v p %v/%v h %v", n, i, x[i], wantX[i], p[i], wantP[i], h[i])
			}
		}
	}
}

// BenchmarkSweeps times the CG vector kernels on out-of-cache operands
// and reports ns per vector element, the figure EXPERIMENTS.md sets
// beside the bounds-check site counts.
func BenchmarkSweeps(b *testing.B) {
	const n = 1 << 21
	v := randVecs(1, n, 3)
	part := make([]float64, Blocks(n))
	for _, k := range []struct {
		name string
		run  func()
	}{
		{"Dot", func() { dotSink = Dot(v[0], v[1]) }},
		{"Axpy", func() { Axpy(1e-9, v[0], v[1]) }},
		{"DotBlocks", func() { DotBlocks(part, v[0], v[1]) }},
		{"AxpyDotBlocks", func() { AxpyDotBlocks(part, 1e-9, v[0], v[1]) }},
		{"AxpyXpby", func() { AxpyXpby(1e-9, 0.5, v[0], v[1], v[2]) }},
		{"Hadamard", func() { Hadamard(v[0], v[1], v[2]) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/elem")
		})
	}
}
