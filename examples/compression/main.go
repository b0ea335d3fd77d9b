// Compression study: how much each storage scheme shrinks each matrix
// class — the static side of the paper's argument (§IV/§V). Prints a
// per-matrix, per-format size table over the suite generators plus the
// CSR-DU unit mix, showing where delta encoding and value indexing do
// and do not pay.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"text/tabwriter"

	"spmv"
	"spmv/internal/core"
	"spmv/internal/csrdu"
	"spmv/internal/matgen"
)

func main() {
	scale := flag.Int("n", 20000, "base matrix dimension")
	flag.Parse()
	n := *scale

	mats := []struct {
		name string
		c    *core.COO
	}{
		{"stencil2d", matgen.Stencil2D(isqrt(n * 5))},
		{"banded", matgen.Banded(rand.New(rand.NewSource(1)), n, 40, 8, matgen.Values{})},
		{"banded-q64", matgen.Banded(rand.New(rand.NewSource(2)), n, 40, 8, matgen.Values{Unique: 64})},
		{"random", matgen.RandomUniform(rand.New(rand.NewSource(3)), n, n, 8, matgen.Values{})},
		{"powerlaw", matgen.PowerLaw(rand.New(rand.NewSource(4)), n, 8, 0.8, matgen.Values{})},
		{"blockdiag", matgen.BlockDiag(rand.New(rand.NewSource(5)), n/8, 8, matgen.Values{Unique: 8})},
		{"femlike-q", matgen.FEMLike(rand.New(rand.NewSource(6)), n, 6, matgen.Values{Unique: 100})},
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "matrix\tnnz\tttu\tcsr16\tcsr-du\t+rle\tcsr-vi\tdu-vi\tdcsr\tdu units (u8/u16/u32)")
	for _, m := range mats {
		base, err := spmv.NewCSR(m.c)
		if err != nil {
			panic(err)
		}
		pct := func(f spmv.Format, err error) string {
			if err != nil {
				return "-"
			}
			return fmt.Sprintf("%.0f%%", 100*float64(f.SizeBytes())/float64(base.SizeBytes()))
		}
		du, _ := spmv.NewCSRDU(m.c)
		st := du.Stats()
		c16 := "-"
		if m.c.Cols() <= 1<<16 {
			c16 = pct(spmv.NewCSR16(m.c))
		}
		fmt.Fprintf(w, "%s\t%d\t%.0f\t%s\t%s\t%s\t%s\t%s\t%s\t%d/%d/%d\n",
			m.name, m.c.Len(), matgen.TTU(m.c),
			c16,
			pct(du, nil),
			pct(spmv.NewCSRDUOpts(m.c, spmv.DUOptions{RLE: true})),
			pct(spmv.NewCSRVI(m.c)),
			pct(spmv.NewCSRDUVI(m.c)),
			pct(spmv.NewDCSR(m.c)),
			st.PerClass[csrdu.ClassU8], st.PerClass[csrdu.ClassU16], st.PerClass[csrdu.ClassU32],
		)
	}
	w.Flush()
	fmt.Println("\n(sizes as % of 32-bit-index CSR; value data is 2/3 of CSR, which bounds")
	fmt.Println(" index-only schemes at ~67% while csr-vi can reach ~40% and du-vi ~15%)")
}

func isqrt(n int) int {
	k := 1
	for k*k < n {
		k++
	}
	return k
}
