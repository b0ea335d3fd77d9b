// Wall-clock benchmarks, one family per table/figure of the paper's
// evaluation (§VI). These measure the real Go kernels with goroutine
// row partitioning on the host machine; the deterministic reproduction
// of the paper's exact tables on the modeled Clovertown is
// cmd/spmvsim (see EXPERIMENTS.md). Ratios between sub-benchmarks
// mirror the corresponding table cells: e.g. Table III @ 8 threads is
// BenchmarkTable3/csr-8t versus BenchmarkTable3/csr-du-8t.
package spmv_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"spmv"
	"spmv/internal/core"
	"spmv/internal/matgen"
)

// Benchmark matrices, built once. Sizes are chosen so the working set
// (~25MB) exceeds typical L2/L3 slices, keeping the kernels
// memory-bound as in the paper's M_L class.
var benchOnce sync.Once
var benchMats struct {
	large    *core.COO // banded, M_L-like, index-compressible
	largeQ   *core.COO // same shape, 128 unique values (ttu >> 5)
	random   *core.COO // scattered, worst case for delta encoding
	stencil  *core.COO // 5-point Poisson, both schemes shine
	blocky   *core.COO // dense blocks: RLE territory
	powerlaw *core.COO // skewed row lengths
}

func benchSetup() {
	benchOnce.Do(func() {
		benchMats.large = matgen.Banded(rand.New(rand.NewSource(1)), 200000, 60, 8, matgen.Values{})
		benchMats.largeQ = matgen.Banded(rand.New(rand.NewSource(2)), 200000, 60, 8, matgen.Values{Unique: 128})
		benchMats.random = matgen.RandomUniform(rand.New(rand.NewSource(3)), 150000, 150000, 7, matgen.Values{})
		benchMats.stencil = matgen.Stencil2D(450)
		benchMats.blocky = matgen.BlockDiag(rand.New(rand.NewSource(4)), 25000, 8, matgen.Values{Unique: 8})
		benchMats.powerlaw = matgen.PowerLaw(rand.New(rand.NewSource(5)), 250000, 8, 0.7, matgen.Values{})
	})
}

// runFormat benchmarks one (format, threads) cell.
func runFormat(b *testing.B, f spmv.Format, threads int) {
	b.Helper()
	x := make([]float64, f.Cols())
	y := make([]float64, f.Rows())
	for i := range x {
		x[i] = float64(i%9) - 4
	}
	b.SetBytes(f.SizeBytes())
	if threads == 1 {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.SpMV(y, x)
		}
		return
	}
	e, err := spmv.NewExecutorOpts(f, spmv.ExecOptions{Threads: threads})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	e.Run(y, x) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run(y, x)
	}
}

func mustFmt(f spmv.Format, err error) spmv.Format {
	if err != nil {
		panic(err)
	}
	return f
}

// BenchmarkTable2 regenerates Table II's rows: CSR at 1/2/4/8 threads
// on a memory-bound matrix. Speedups = ns(1t)/ns(Nt).
func BenchmarkTable2(b *testing.B) {
	benchSetup()
	f := mustFmt(spmv.Build(benchMats.large))
	for _, th := range []int{1, 2, 4, 8} {
		b.Run(bname("csr", th), func(b *testing.B) { runFormat(b, f, th) })
	}
}

// BenchmarkTable3 regenerates Table III's cells: CSR vs CSR-DU at each
// thread count (ratio at equal threads = the table's speedup).
func BenchmarkTable3(b *testing.B) {
	benchSetup()
	base := mustFmt(spmv.Build(benchMats.large))
	du := mustFmt(spmv.Build(benchMats.large, spmv.WithFormat("csr-du")))
	for _, th := range []int{1, 2, 4, 8} {
		b.Run(bname("csr", th), func(b *testing.B) { runFormat(b, base, th) })
		b.Run(bname("csr-du", th), func(b *testing.B) { runFormat(b, du, th) })
	}
}

// BenchmarkTable4 regenerates Table IV's cells: CSR vs CSR-VI at each
// thread count on a ttu>5 matrix.
func BenchmarkTable4(b *testing.B) {
	benchSetup()
	base := mustFmt(spmv.Build(benchMats.largeQ))
	vi := mustFmt(spmv.Build(benchMats.largeQ, spmv.WithFormat("csr-vi")))
	for _, th := range []int{1, 2, 4, 8} {
		b.Run(bname("csr", th), func(b *testing.B) { runFormat(b, base, th) })
		b.Run(bname("csr-vi", th), func(b *testing.B) { runFormat(b, vi, th) })
	}
}

// BenchmarkFig7 regenerates Fig 7's per-matrix series: CSR-DU across
// matrix types at 8 threads (bars) with CSR alongside (squares).
func BenchmarkFig7(b *testing.B) {
	benchSetup()
	mats := map[string]*core.COO{
		"banded":   benchMats.large,
		"random":   benchMats.random,
		"stencil":  benchMats.stencil,
		"powerlaw": benchMats.powerlaw,
	}
	for name, c := range mats {
		base := mustFmt(spmv.Build(c))
		du := mustFmt(spmv.Build(c, spmv.WithFormat("csr-du")))
		b.Run(name+"/csr-8t", func(b *testing.B) { runFormat(b, base, 8) })
		b.Run(name+"/csr-du-8t", func(b *testing.B) { runFormat(b, du, 8) })
	}
}

// BenchmarkFig8 regenerates Fig 8's per-matrix series: CSR-VI across
// ttu>5 matrices at 8 threads.
func BenchmarkFig8(b *testing.B) {
	benchSetup()
	mats := map[string]*core.COO{
		"banded-q": benchMats.largeQ,
		"stencil":  benchMats.stencil,
		"blocky":   benchMats.blocky,
	}
	for name, c := range mats {
		base := mustFmt(spmv.Build(c))
		vi := mustFmt(spmv.Build(c, spmv.WithFormat("csr-vi")))
		b.Run(name+"/csr-8t", func(b *testing.B) { runFormat(b, base, 8) })
		b.Run(name+"/csr-vi-8t", func(b *testing.B) { runFormat(b, vi, 8) })
	}
}

// BenchmarkAblationDCSR compares the paper's CSR-DU against the DCSR
// comparator (§III-B): similar compression, coarser decode.
func BenchmarkAblationDCSR(b *testing.B) {
	benchSetup()
	du := mustFmt(spmv.Build(benchMats.large, spmv.WithFormat("csr-du")))
	dc := mustFmt(spmv.Build(benchMats.large, spmv.WithFormat("dcsr")))
	b.Run("csr-du-1t", func(b *testing.B) { runFormat(b, du, 1) })
	b.Run("dcsr-1t", func(b *testing.B) { runFormat(b, dc, 1) })
	b.Run("csr-du-8t", func(b *testing.B) { runFormat(b, du, 8) })
	b.Run("dcsr-8t", func(b *testing.B) { runFormat(b, dc, 8) })
}

// BenchmarkAblationRLE measures the CSR-DU RLE extension on its target
// (dense runs) and off-target (scattered) matrices.
func BenchmarkAblationRLE(b *testing.B) {
	benchSetup()
	for name, c := range map[string]*core.COO{"blocky": benchMats.blocky, "banded": benchMats.large} {
		plain := mustFmt(spmv.Build(c, spmv.WithFormat("csr-du")))
		rle := mustFmt(spmv.Build(c, spmv.WithFormat("csr-du"), spmv.WithDUOptions(spmv.DUOptions{RLE: true})))
		b.Run(name+"/plain", func(b *testing.B) { runFormat(b, plain, 1) })
		b.Run(name+"/rle", func(b *testing.B) { runFormat(b, rle, 1) })
	}
}

// BenchmarkAblationDUVI compares the combined format against its
// parents on a matrix where both compressions apply.
func BenchmarkAblationDUVI(b *testing.B) {
	benchSetup()
	c := benchMats.largeQ
	for name, f := range map[string]spmv.Format{
		"csr":       mustFmt(spmv.Build(c)),
		"csr-du":    mustFmt(spmv.Build(c, spmv.WithFormat("csr-du"))),
		"csr-vi":    mustFmt(spmv.Build(c, spmv.WithFormat("csr-vi"))),
		"csr-du-vi": mustFmt(spmv.Build(c, spmv.WithFormat("csr-du-vi"))),
	} {
		b.Run(name+"-8t", func(b *testing.B) { runFormat(b, f, 8) })
	}
}

// BenchmarkAblationPartitioning compares the row-unit and
// nonzero-split schemes of §II-C on the same CSR matrix at 8 threads.
func BenchmarkAblationPartitioning(b *testing.B) {
	benchSetup()
	c := benchMats.large
	f := mustFmt(spmv.Build(c))
	x := make([]float64, c.Cols())
	y := make([]float64, c.Rows())
	for i := range x {
		x[i] = 1
	}
	for _, partition := range []string{"row", "nnz"} {
		b.Run(partition+"-8t", func(b *testing.B) {
			e, err := spmv.NewExecutorOpts(f, spmv.ExecOptions{Threads: 8, Partition: partition})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Run(y, x)
			}
		})
	}
}

// BenchmarkSolverCG measures end-to-end solver throughput per format:
// the paper's motivating workload. The stencil3d-ooc cells run it out
// of cache (Stencil3D(112): 1.4 M rows, 145 MB of CSR, 11 MB a vector)
// through the row executor at 1 and GOMAXPROCS threads, a fixed 20
// iterations each, and report ms/iter and vec-ms/iter — the part of an
// iteration outside Operator.Mul, which is what CG's fused sweeps on
// the executor's pool (DESIGN.md §18) shrink.
func BenchmarkSolverCG(b *testing.B) {
	b.Run("stencil3d-ooc", func(b *testing.B) {
		f := mustFmt(spmv.Build(matgen.Stencil3D(112)))
		rhs := make([]float64, f.Rows())
		for i := range rhs {
			rhs[i] = 1 + float64(i%7)
		}
		x := make([]float64, f.Rows())
		threads := []int{1}
		if p := runtime.GOMAXPROCS(0); p > 1 {
			threads = append(threads, p)
		}
		for _, t := range threads {
			b.Run(fmt.Sprintf("t%d", t), func(b *testing.B) {
				e, err := spmv.NewExecutorOpts(f, spmv.ExecOptions{Threads: t})
				if err != nil {
					b.Fatal(err)
				}
				defer e.Close()
				op := spmv.NewParallelOperator(e, f.Rows())
				var inMul time.Duration
				mul := op.Mul
				op.Mul = func(y, x []float64) error {
					t0 := time.Now()
					err := mul(y, x)
					inMul += time.Since(t0)
					return err
				}
				const iters = 20
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j := range x {
						x[j] = 0
					}
					// tol 0 is never met: every solve runs iters iterations.
					if _, err := spmv.CG(op, rhs, x, 0, iters); err != nil {
						b.Fatal(err)
					}
				}
				perIter := 1e3 / float64(b.N*iters)
				b.ReportMetric(b.Elapsed().Seconds()*perIter, "ms/iter")
				b.ReportMetric((b.Elapsed()-inMul).Seconds()*perIter, "vec-ms/iter")
			})
		}
	})
	c := matgen.Stencil2D(300)
	for name, f := range map[string]spmv.Format{
		"csr":    mustFmt(spmv.Build(c)),
		"csr-vi": mustFmt(spmv.Build(c, spmv.WithFormat("csr-vi"))),
	} {
		b.Run(name, func(b *testing.B) {
			op, err := spmv.NewOperator(f)
			if err != nil {
				b.Fatal(err)
			}
			bb := make([]float64, op.N)
			for i := range bb {
				bb[i] = 1
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x := make([]float64, op.N)
				if _, err := spmv.CG(op, bb, x, 1e-6, 50); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBatchRHS measures the batched multi-vector kernels: one
// pass over the matrix stream feeding k result vectors. Each cell
// reports ns/vector and the modeled bytes/vector — the figure that
// must fall with k, since the matrix stream is read once regardless of
// panel width. The amortization argument is per-thread, so the cells
// run the serial fused kernels; RunBatch parallelizes the same loops.
func BenchmarkBatchRHS(b *testing.B) {
	benchSetup()
	c := benchMats.largeQ // ttu >> 5: both index and value compression apply
	for _, entry := range []struct {
		name string
		f    spmv.Format
	}{
		{"csr", mustFmt(spmv.Build(c))},
		{"csr-du", mustFmt(spmv.Build(c, spmv.WithFormat("csr-du")))},
		{"csr-vi", mustFmt(spmv.Build(c, spmv.WithFormat("csr-vi")))},
		{"csr-du-vi", mustFmt(spmv.Build(c, spmv.WithFormat("csr-du-vi")))},
	} {
		f := entry.f
		for _, k := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/k=%d", entry.name, k), func(b *testing.B) {
				x := make([]float64, f.Cols()*k)
				y := make([]float64, f.Rows()*k)
				for i := range x {
					x[i] = float64(i%9) - 4
				}
				b.SetBytes(spmv.BytesPerSpMM(f, k))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					spmv.SpMVBatch(f, y, x, k)
				}
				b.ReportMetric(spmv.BytesPerVector(f, k), "bytes/vector")
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/vector")
			})
		}
	}
}

func bname(format string, threads int) string {
	return format + "-" + string(rune('0'+threads)) + "t"
}
