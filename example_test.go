package spmv_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"spmv"
)

// tridiag builds the n×n 1D Laplacian used by several examples.
func tridiag(n int) *spmv.COO {
	c := spmv.NewCOO(n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, 2)
		if i > 0 {
			c.Add(i, i-1, -1)
		}
		if i < n-1 {
			c.Add(i, i+1, -1)
		}
	}
	return c
}

func ExampleBuild() {
	c := tridiag(1000)
	f, _ := spmv.Build(c, spmv.WithFormat("csr-du"))
	fmt.Printf("%s: %d nnz, %.0f%% of CSR\n",
		f.Name(), f.NNZ(), 100*spmv.CompressionRatio(f))
	st := f.(*spmv.CSRDU).Stats()
	fmt.Printf("units: %d, all one-byte deltas: %v\n", st.Units, st.PerClass[0] == st.Units)
	// Every interior row repeats the row above one column right: REP
	// units carry them with no index bytes of their own.
	fmt.Printf("rows in %d REP units: %d\n", st.RepUnits, st.RepRows)
	// Output:
	// csr-du: 2998 nnz, 60% of CSR
	// units: 6, all one-byte deltas: true
	// rows in 4 REP units: 998
}

func ExampleBuild_valueIndexing() {
	c := tridiag(1000) // only two distinct values: 2 and -1
	f, _ := spmv.Build(c, spmv.WithFormat("csr-vi"))
	m := f.(*spmv.CSRVI)
	fmt.Printf("unique values: %d (ttu %.0f), index width %d byte\n",
		len(m.Unique), m.TTU(), m.IndexWidth())
	fmt.Printf("applicable per the paper's ttu>5 rule: %v\n", m.Applicable())
	// Output:
	// unique values: 2 (ttu 1499), index width 1 byte
	// applicable per the paper's ttu>5 rule: true
}

func ExampleVerify() {
	c := tridiag(1000)
	f, _ := spmv.Build(c, spmv.WithFormat("csr-du"))
	m := f.(*spmv.CSRDU)
	fmt.Println("fresh matrix verifies:", spmv.Verify(m) == nil)

	// Simulate bit rot: the encoded control stream loses its last byte,
	// as a truncated download or torn mmap would produce.
	m.Ctl = m.Ctl[:len(m.Ctl)-1]
	err := spmv.Verify(m)
	fmt.Println("truncated stream detected:", errors.Is(err, spmv.ErrTruncated))
	// Output:
	// fresh matrix verifies: true
	// truncated stream detected: true
}

func ExampleNewExecutorOpts() {
	c := tridiag(8)
	m, _ := spmv.Build(c)
	e, _ := spmv.NewExecutorOpts(m, spmv.ExecOptions{Threads: 4}) // row partitioning, nnz balanced
	defer e.Close()
	x := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	y := make([]float64, 8)
	e.Run(y, x) // y = A*x on 4 goroutines
	fmt.Println(y)
	// Output:
	// [1 0 0 0 0 0 0 1]
}

func ExampleCG() {
	c := tridiag(64)
	m, _ := spmv.Build(c, spmv.WithFormat("csr-vi")) // the solver is format-agnostic
	op, _ := spmv.NewOperator(m)
	b := make([]float64, 64)
	b[31] = 1
	x := make([]float64, 64)
	res, _ := spmv.CG(op, b, x, 1e-10, 1000)
	fmt.Printf("converged=%v residual<=1e-10=%v\n", res.Converged, res.Residual <= 1e-10)
	// Output:
	// converged=true residual<=1e-10=true
}

func ExampleReadMatrixMarket() {
	mtx := `%%MatrixMarket matrix coordinate real symmetric
3 3 3
1 1 2.0
2 1 -1.0
3 3 4.0
`
	c, _ := spmv.ReadMatrixMarket(strings.NewReader(mtx))
	fmt.Printf("%dx%d with %d nnz after symmetric expansion\n", c.Rows(), c.Cols(), c.Len())
	// Output:
	// 3x3 with 4 nnz after symmetric expansion
}

func ExampleWriteMatrix() {
	m, _ := spmv.Build(tridiag(100), spmv.WithFormat("csr-du"))
	var buf bytes.Buffer
	spmv.WriteMatrix(&buf, m) // encode once...
	back, _ := spmv.ReadMatrix(&buf)
	fmt.Printf("loaded %s with %d nnz\n", back.Name(), back.NNZ()) // ...load compressed
	// Output:
	// loaded csr-du with 298 nnz
}

func ExampleRCM() {
	// A permuted banded matrix: RCM recovers the banded ordering.
	c := tridiag(6)
	c.Finalize()
	shuffled, _ := spmv.PermuteMatrix(c, []int32{3, 0, 5, 1, 4, 2})
	perm, _ := spmv.RCM(shuffled)
	tidy, _ := spmv.PermuteMatrix(shuffled, perm)
	fmt.Printf("bandwidth %d -> %d\n", spmv.Bandwidth(shuffled), spmv.Bandwidth(tidy))
	// Output:
	// bandwidth 5 -> 1
}

func ExampleNewILU0() {
	c := tridiag(100) // tridiagonal: ILU(0) is the exact factorization
	m, _ := spmv.Build(c)
	op, _ := spmv.NewOperator(m)
	ilu, _ := spmv.NewILU0(c)
	b := make([]float64, 100)
	b[0] = 1
	x := make([]float64, 100)
	res, _ := spmv.CGPrec(op, ilu, b, x, 1e-12, 100)
	fmt.Printf("iterations: %d\n", res.Iterations) // exact preconditioner: 1 step
	// Output:
	// iterations: 1
}

func ExampleWithFormat() {
	c := tridiag(50)
	for _, name := range []string{"csr", "csr-du", "csr-vi"} {
		f, _ := spmv.Build(c, spmv.WithFormat(name))
		fmt.Printf("%s %d bytes\n", f.Name(), f.SizeBytes())
	}
	// Output:
	// csr 1980 bytes
	// csr-du 1198 bytes
	// csr-vi 960 bytes
}
