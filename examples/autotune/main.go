// Autotune: analyze matrices, take the advisor's format recommendation,
// verify it empirically, and show the RCM-reordering synergy — ordering
// the matrix first makes the index compression strictly better.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"spmv"
	"spmv/internal/matgen"
)

func main() {
	rng := rand.New(rand.NewSource(42))
	mats := map[string]*spmv.COO{
		"stencil (PDE)":     matgen.Stencil2D(200),
		"banded, 64 values": matgen.Banded(rng, 40000, 30, 8, matgen.Values{Unique: 64}),
		"scattered random":  matgen.RandomUniform(rng, 30000, 30000, 8, matgen.Values{}),
		"shuffled banded":   shuffle(rng, matgen.Symmetrize(matgen.Banded(rng, 30000, 8, 6, matgen.Values{}))),
	}

	for name, c := range mats {
		fmt.Printf("== %s: %dx%d, %d nnz ==\n", name, c.Rows(), c.Cols(), c.Len())
		a := spmv.Analyze(c)
		fmt.Printf("   ttu %.0f | %.0f%% one-byte deltas | %d diagonals | symmetric %v\n",
			a.TTU, 100*a.DeltaFrac[0], a.Diagonals, a.Symmetric)
		recs := a.Recommend()
		for i, r := range recs {
			if i == 3 {
				break
			}
			fmt.Printf("   advisor #%d: %-9s predicted %5.1f%% of CSR — %s\n",
				i+1, r.Format, 100*r.Ratio, r.Reason)
		}
		// Verify the top recommendation empirically where buildable.
		if f := build(recs[0].Format, c); f != nil {
			fmt.Printf("   measured: %s is %.1f%% of CSR, serial SpMV %v\n",
				f.Name(), 100*spmv.CompressionRatio(f), timeSpMV(f))
		}
		fmt.Println()
	}

	// RCM synergy on the shuffled matrix.
	mess := mats["shuffled banded"]
	perm, err := spmv.RCM(mess)
	if err != nil {
		log.Fatal(err)
	}
	tidy, _ := spmv.PermuteMatrix(mess, perm)
	before, _ := spmv.NewCSRDU(mess)
	after, _ := spmv.NewCSRDU(tidy)
	fmt.Printf("== RCM synergy (shuffled banded) ==\n")
	fmt.Printf("   bandwidth %d -> %d\n", spmv.Bandwidth(mess), spmv.Bandwidth(tidy))
	fmt.Printf("   csr-du size %.1f%% -> %.1f%% of CSR\n",
		100*spmv.CompressionRatio(before), 100*spmv.CompressionRatio(after))
}

func shuffle(rng *rand.Rand, c *spmv.COO) *spmv.COO {
	perm := make([]int32, c.Rows())
	for i := range perm {
		perm[i] = int32(i)
	}
	rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
	out, err := spmv.PermuteMatrix(c, perm)
	if err != nil {
		log.Fatal(err)
	}
	return out
}

func build(format string, c *spmv.COO) spmv.Format {
	f, err := spmv.Build(c, spmv.WithFormat(format))
	if err != nil {
		return nil
	}
	return f
}

func timeSpMV(f spmv.Format) time.Duration {
	x := make([]float64, f.Cols())
	y := make([]float64, f.Rows())
	for i := range x {
		x[i] = 1
	}
	f.SpMV(y, x) // warm
	const iters = 5
	start := time.Now()
	for i := 0; i < iters; i++ {
		f.SpMV(y, x)
	}
	return time.Since(start) / iters
}
