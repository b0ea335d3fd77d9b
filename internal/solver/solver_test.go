package solver

import (
	"math"
	"math/rand"
	"testing"

	"spmv/internal/core"
	"spmv/internal/csr"
	"spmv/internal/csrdu"
	"spmv/internal/matgen"
	"spmv/internal/parallel"
	"spmv/internal/testmat"
)

func poissonOp(t *testing.T, n int) (Operator, *core.COO) {
	t.Helper()
	c := matgen.Stencil2D(n)
	f, err := csr.FromCOO(c)
	if err != nil {
		t.Fatal(err)
	}
	op, err := FromFormat(f)
	if err != nil {
		t.Fatal(err)
	}
	return op, c
}

func residual(c *core.COO, x, b []float64) float64 {
	ax := make([]float64, c.Rows())
	c.SpMV(ax, x)
	s, nb := 0.0, 0.0
	for i := range ax {
		d := b[i] - ax[i]
		s += d * d
		nb += b[i] * b[i]
	}
	if nb == 0 {
		nb = 1
	}
	return math.Sqrt(s / nb)
}

func TestCGSolvesPoisson(t *testing.T) {
	op, c := poissonOp(t, 16)
	rng := rand.New(rand.NewSource(1))
	b := testmat.RandVec(rng, op.N)
	x := make([]float64, op.N)
	res, err := CG(op, b, x, 1e-10, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("CG did not converge: %+v", res)
	}
	if r := residual(c, x, b); r > 1e-8 {
		t.Errorf("true residual = %v", r)
	}
}

func TestCGZeroRHS(t *testing.T) {
	op, _ := poissonOp(t, 8)
	x := make([]float64, op.N)
	res, err := CG(op, make([]float64, op.N), x, 1e-12, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations != 0 {
		t.Errorf("zero RHS: %+v", res)
	}
}

func TestCGWarmStartFasterThanCold(t *testing.T) {
	op, _ := poissonOp(t, 12)
	rng := rand.New(rand.NewSource(2))
	b := testmat.RandVec(rng, op.N)
	cold := make([]float64, op.N)
	resCold, _ := CG(op, b, cold, 1e-10, 2000)
	// Warm start from the solution: should converge immediately.
	resWarm, _ := CG(op, b, cold, 1e-10, 2000)
	if resWarm.Iterations > 1 {
		t.Errorf("warm start took %d iterations", resWarm.Iterations)
	}
	if resCold.Iterations < 5 {
		t.Errorf("cold start suspiciously fast: %d", resCold.Iterations)
	}
}

func TestCGBreakdownOnIndefinite(t *testing.T) {
	// -I is negative definite: CG must report breakdown, not loop.
	c := core.NewCOO(4, 4)
	for i := 0; i < 4; i++ {
		c.Add(i, i, -1)
	}
	c.Finalize()
	f, _ := csr.FromCOO(c)
	op, _ := FromFormat(f)
	b := []float64{1, 2, 3, 4}
	x := make([]float64, 4)
	if _, err := CG(op, b, x, 1e-10, 100); err == nil {
		t.Error("no breakdown error on negative definite matrix")
	}
}

func TestPCGBeatsOrMatchesCG(t *testing.T) {
	// Scale the Poisson rows to make Jacobi meaningful.
	n := 14
	c := matgen.Stencil2D(n)
	scaled := core.NewCOO(c.Rows(), c.Cols())
	for k := 0; k < c.Len(); k++ {
		i, j, v := c.At(k)
		scale := 1.0 + 10*float64(i%7)
		scaled.Add(i, j, v*scale)
	}
	// Symmetrize to keep SPD: A' = D*A is not symmetric, so build
	// D^(1/2) A D^(1/2) instead.
	scaled = core.NewCOO(c.Rows(), c.Cols())
	d := func(i int) float64 { return math.Sqrt(1.0 + 10*float64(i%7)) }
	for k := 0; k < c.Len(); k++ {
		i, j, v := c.At(k)
		scaled.Add(i, j, v*d(i)*d(j))
	}
	scaled.Finalize()
	f, _ := csr.FromCOO(scaled)
	op, _ := FromFormat(f)
	invD, err := InvDiag(scaled)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	b := testmat.RandVec(rng, op.N)

	x1 := make([]float64, op.N)
	plain, err := CG(op, b, x1, 1e-8, 5000)
	if err != nil {
		t.Fatal(err)
	}
	x2 := make([]float64, op.N)
	pre, err := PCG(op, invD, b, x2, 1e-8, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Converged || !pre.Converged {
		t.Fatalf("convergence: plain %+v, pcg %+v", plain, pre)
	}
	if pre.Iterations > plain.Iterations {
		t.Errorf("PCG (%d iters) worse than CG (%d iters) on badly scaled system",
			pre.Iterations, plain.Iterations)
	}
}

func TestInvDiagErrors(t *testing.T) {
	c := core.NewCOO(2, 3)
	c.Finalize()
	if _, err := InvDiag(c); err == nil {
		t.Error("non-square accepted")
	}
	c2 := core.NewCOO(2, 2)
	c2.Add(0, 0, 1)
	c2.Finalize()
	if _, err := InvDiag(c2); err == nil {
		t.Error("zero diagonal accepted")
	}
}

func TestGMRESSolvesNonsymmetric(t *testing.T) {
	// Convection-diffusion-like: Poisson plus an asymmetric shift.
	n := 12
	c := matgen.Stencil2D(n)
	ns := core.NewCOO(c.Rows(), c.Cols())
	for k := 0; k < c.Len(); k++ {
		i, j, v := c.At(k)
		if j == i+1 {
			v += 0.3 // convection term breaks symmetry
		}
		ns.Add(i, j, v)
	}
	ns.Finalize()
	f, _ := csr.FromCOO(ns)
	op, _ := FromFormat(f)
	rng := rand.New(rand.NewSource(4))
	b := testmat.RandVec(rng, op.N)
	x := make([]float64, op.N)
	res, err := GMRES(op, b, x, 30, 1e-9, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("GMRES did not converge: %+v", res)
	}
	if r := residual(ns, x, b); r > 1e-7 {
		t.Errorf("true residual = %v", r)
	}
}

func TestGMRESIdentityOneIteration(t *testing.T) {
	c := core.NewCOO(5, 5)
	for i := 0; i < 5; i++ {
		c.Add(i, i, 1)
	}
	c.Finalize()
	f, _ := csr.FromCOO(c)
	op, _ := FromFormat(f)
	b := []float64{1, 2, 3, 4, 5}
	x := make([]float64, 5)
	res, err := GMRES(op, b, x, 5, 1e-12, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations > 1 {
		t.Errorf("identity solve: %+v", res)
	}
	for i := range x {
		if math.Abs(x[i]-b[i]) > 1e-10 {
			t.Errorf("x[%d] = %v", i, x[i])
		}
	}
}

func TestGMRESBadArgs(t *testing.T) {
	op, _ := poissonOp(t, 4)
	b := make([]float64, op.N)
	x := make([]float64, op.N)
	if _, err := GMRES(op, b, x, 0, 1e-9, 10); err == nil {
		t.Error("restart 0 accepted")
	}
	if _, err := GMRES(op, b[:2], x, 5, 1e-9, 10); err == nil {
		t.Error("short b accepted")
	}
}

func TestFromFormatRejectsRectangular(t *testing.T) {
	c := core.NewCOO(3, 4)
	c.Add(0, 0, 1)
	c.Finalize()
	f, _ := csr.FromCOO(c)
	if _, err := FromFormat(f); err == nil {
		t.Error("rectangular accepted")
	}
}

func TestCGSameAnswerAcrossFormats(t *testing.T) {
	// The solver must be format-agnostic: CSR, CSR-DU and CSR-VI give
	// the same iterates (bitwise-identical kernels up to fp ordering,
	// which is identical here since all traverse row-major).
	c := matgen.Stencil2D(10)
	rng := rand.New(rand.NewSource(5))
	b := testmat.RandVec(rng, c.Rows())
	solve := func(f core.Format) []float64 {
		op, err := FromFormat(f)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, op.N)
		res, err := CG(op, b, x, 1e-10, 2000)
		if err != nil || !res.Converged {
			t.Fatalf("solve failed: %v %+v", err, res)
		}
		return x
	}
	x1 := solve(mustF(csr.FromCOO(c)))
	x2 := solve(mustF(csrdu.FromCOO(c)))
	x3 := solve(mustF(csr.FromCOOVI(c)))
	testmat.AssertClose(t, "du vs csr", x2, x1, 1e-8)
	testmat.AssertClose(t, "vi vs csr", x3, x1, 1e-8)
}

func mustF(f core.Format, err error) core.Format {
	if err != nil {
		panic(err)
	}
	return f
}

func TestCGWithParallelExecutor(t *testing.T) {
	c := matgen.Stencil2D(14)
	f, _ := csr.FromCOO(c)
	e, err := parallel.NewExecutor(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	op := FromRunner(e, f.Rows())
	rng := rand.New(rand.NewSource(6))
	b := testmat.RandVec(rng, op.N)
	x := make([]float64, op.N)
	res, err := CG(op, b, x, 1e-10, 2000)
	if err != nil || !res.Converged {
		t.Fatalf("parallel CG: %v %+v", err, res)
	}
	if r := residual(c, x, b); r > 1e-8 {
		t.Errorf("true residual = %v", r)
	}
}
