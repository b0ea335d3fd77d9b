// Ablation benchmarks for the systems beyond the paper's headline
// formats: reordering synergy, symmetric storage, multi-vector SpMM and
// mixed precision.
package spmv_test

import (
	"math/rand"
	"testing"

	"spmv"
	"spmv/internal/matgen"
)

// BenchmarkAblationRCM measures CSR-DU before and after reverse
// Cuthill-McKee reordering of a scattered symmetric matrix: smaller
// deltas, smaller ctl stream, faster kernel.
func BenchmarkAblationRCM(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	mess := matgen.Symmetrize(matgen.FEMLike(rng, 60000, 5, matgen.Values{}))
	perm, err := spmv.RCM(mess)
	if err != nil {
		b.Fatal(err)
	}
	tidy, err := spmv.PermuteMatrix(mess, perm)
	if err != nil {
		b.Fatal(err)
	}
	before := mustFmt(spmv.Build(mess, spmv.WithFormat("csr-du")))
	after := mustFmt(spmv.Build(tidy, spmv.WithFormat("csr-du")))
	b.Logf("csr-du size: %.1f%% -> %.1f%% of CSR after RCM",
		100*spmv.CompressionRatio(before), 100*spmv.CompressionRatio(after))
	b.Run("original", func(b *testing.B) { runFormat(b, before, 1) })
	b.Run("rcm", func(b *testing.B) { runFormat(b, after, 1) })
}

// BenchmarkAblationSym measures symmetric one-triangle storage against
// full CSR: half the stream, two FLOPs per stored element.
func BenchmarkAblationSym(b *testing.B) {
	benchSetup()
	s, err := spmv.NewSymCSR(benchMats.stencil, 1e-12)
	if err != nil {
		b.Fatal(err)
	}
	full := mustFmt(spmv.Build(benchMats.stencil))
	b.Run("csr", func(b *testing.B) { runFormat(b, full, 1) })
	b.Run("sym-csr", func(b *testing.B) { runFormat(b, s, 1) })
}

// BenchmarkAblationSpMM measures the multi-vector kernel: matrix bytes
// amortize over k vectors, so bytes/FLOP — the paper's bottleneck —
// drops by k.
func BenchmarkAblationSpMM(b *testing.B) {
	benchSetup()
	m := mustFmt(spmv.Build(benchMats.large)).(*spmv.CSR)
	for _, k := range []int{1, 2, 4, 8} {
		k := k
		x := make([]float64, m.Cols()*k)
		y := make([]float64, m.Rows()*k)
		for i := range x {
			x[i] = float64(i%7) - 3
		}
		b.Run(bname("k", k), func(b *testing.B) {
			b.SetBytes(m.SizeBytes())
			for i := 0; i < b.N; i++ {
				if k == 1 {
					m.SpMV(y, x)
				} else {
					m.SpMVBatch(y, x, k)
				}
			}
		})
	}
}

// BenchmarkAblationMixedPrecision measures csr32 (half value bytes)
// against csr at 8 threads on a memory-bound matrix.
func BenchmarkAblationMixedPrecision(b *testing.B) {
	benchSetup()
	full := mustFmt(spmv.Build(benchMats.large))
	low := mustFmt(spmv.Build(benchMats.large, spmv.WithFormat("csr32")))
	b.Run("csr-8t", func(b *testing.B) { runFormat(b, full, 8) })
	b.Run("csr32-8t", func(b *testing.B) { runFormat(b, low, 8) })
}

// BenchmarkEncoders measures construction cost: the paper claims O(nnz)
// encoding with no asymptotic overhead over CSR assembly.
func BenchmarkEncoders(b *testing.B) {
	benchSetup()
	c := benchMats.large
	b.Run("csr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustFmt(spmv.Build(c))
		}
	})
	b.Run("csr-du", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustFmt(spmv.Build(c, spmv.WithFormat("csr-du")))
		}
	})
	b.Run("csr-vi", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustFmt(spmv.Build(c, spmv.WithFormat("csr-vi")))
		}
	})
	b.Run("dcsr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustFmt(spmv.Build(c, spmv.WithFormat("dcsr")))
		}
	})
}
