package solver

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"spmv/internal/core"
	"spmv/internal/csr"
	"spmv/internal/matgen"
	"spmv/internal/parallel"
	"spmv/internal/testmat"
)

// identity is M = I as a general Preconditioner, so CGPrec can ride
// the same tables as CG and PCG.
type identity struct{}

func (identity) Apply(z, r []float64) { copy(z, r) }

// cgFamily runs each of the three entry points of the one cg core.
var cgFamily = []struct {
	name  string
	solve func(a Operator, invDiag, b, x []float64, tol float64, maxIter int) (Result, error)
}{
	{"CG", func(a Operator, _, b, x []float64, tol float64, maxIter int) (Result, error) {
		return CG(a, b, x, tol, maxIter)
	}},
	{"PCG", PCG},
	{"CGPrec", func(a Operator, _, b, x []float64, tol float64, maxIter int) (Result, error) {
		return CGPrec(a, identity{}, b, x, tol, maxIter)
	}},
}

// spdSkewed is a SkewedRows pattern made SPD: symmetrized, then given
// a strictly dominant diagonal. One row holds a fifth of the entries.
func spdSkewed(n int) *core.COO {
	s := matgen.Symmetrize(matgen.SkewedRows(rand.New(rand.NewSource(7)), n, 4, n/3, 0.2, matgen.Values{}))
	rowAbs := make([]float64, n)
	out := core.NewCOO(n, n)
	for k := 0; k < s.Len(); k++ {
		i, j, v := s.At(k)
		if i != j {
			out.Add(i, j, v)
			rowAbs[i] += math.Abs(v)
		}
	}
	for i, a := range rowAbs {
		out.Add(i, i, a+1)
	}
	out.Finalize()
	return out
}

// TestCGBitwiseAcrossThreadCounts is the reproducibility contract:
// the pool-less operator and row executors of 1, 2, 3 and 7 threads
// produce the same x bit for bit, the same iteration count and the
// same residual, for vectors shorter than one block, ragged and
// block-aligned.
func TestCGBitwiseAcrossThreadCounts(t *testing.T) {
	for _, m := range []struct {
		name string
		c    *core.COO
	}{
		{"stencil2d-n400", matgen.Stencil2D(20)},
		{"stencil2d-n2025", matgen.Stencil2D(45)},
		{"stencil2d-n4096", matgen.Stencil2D(64)},
		{"stencil3d-n2197", matgen.Stencil3D(13)},
		{"skewed-spd-n3000", spdSkewed(3000)},
	} {
		f, err := csr.FromCOO(m.c)
		if err != nil {
			t.Fatal(err)
		}
		invD, err := InvDiag(m.c)
		if err != nil {
			t.Fatal(err)
		}
		b := testmat.RandVec(rand.New(rand.NewSource(11)), f.Rows())
		for _, s := range cgFamily {
			serial, err := FromFormat(f)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]float64, f.Rows())
			ref, err := s.solve(serial, invD, b, want, 1e-10, 5000)
			if err != nil || !ref.Converged {
				t.Fatalf("%s %s serial: %v %+v", m.name, s.name, err, ref)
			}
			if r := residual(m.c, want, b); r > 1e-8 {
				t.Errorf("%s %s: true residual %v", m.name, s.name, r)
			}
			for _, threads := range []int{1, 2, 3, 7} {
				e, err := parallel.New(f, parallel.ExecOptions{Threads: threads})
				if err != nil {
					t.Fatal(err)
				}
				op := FromRunner(e, f.Rows())
				if op.Pool == nil {
					t.Fatalf("FromRunner left the row executor's pool unused")
				}
				x := make([]float64, f.Rows())
				res, err := s.solve(op, invD, b, x, 1e-10, 5000)
				e.Close()
				if err != nil || res != ref {
					t.Errorf("%s %s t=%d: %v, result %+v, serial %+v", m.name, s.name, threads, err, res, ref)
				}
				for i := range x {
					if x[i] != want[i] {
						t.Errorf("%s %s t=%d: x[%d] = %v, serial %v (must be bitwise equal)", m.name, s.name, threads, i, x[i], want[i])
						break
					}
				}
			}
		}
	}
}

// TestCGBreakdownTable: a non-finite operand or an indefinite matrix
// ends the solve with a breakdown error after a multiply or two. NaN
// used to pass the `pap <= 0` test and spin to maxIter with a nil
// error.
func TestCGBreakdownTable(t *testing.T) {
	good, c := poissonOp(t, 6)
	invD, err := InvDiag(c)
	if err != nil {
		t.Fatal(err)
	}
	ones := func() []float64 {
		b := make([]float64, good.N)
		for i := range b {
			b[i] = 1
		}
		return b
	}
	nanB := ones()
	nanB[good.N/2] = math.NaN()
	for _, tc := range []struct {
		name string
		b    []float64
		mul  func(y, x []float64) error
	}{
		{"NaN in b", nanB, good.Mul},
		{"NaN from Mul", ones(), func(y, x []float64) error {
			err := good.Mul(y, x)
			y[3] = math.NaN()
			return err
		}},
		{"Inf from Mul", ones(), func(y, x []float64) error {
			err := good.Mul(y, x)
			y[3] = math.Inf(1)
			return err
		}},
		{"indefinite matrix", ones(), func(y, x []float64) error {
			for i := range y {
				y[i] = -x[i]
			}
			return nil
		}},
	} {
		for _, s := range cgFamily {
			muls := 0
			op := Operator{N: good.N, Mul: func(y, x []float64) error { muls++; return tc.mul(y, x) }}
			res, err := s.solve(op, invD, tc.b, make([]float64, good.N), 1e-10, 1000)
			if err == nil || !strings.Contains(err.Error(), s.name+" breakdown") {
				t.Errorf("%s, %s: got %+v, %v; want a %s breakdown error", tc.name, s.name, res, err, s.name)
			}
			if muls > 3 {
				t.Errorf("%s, %s: %d multiplies before giving up", tc.name, s.name, muls)
			}
		}
	}
}

// TestCGIgnoresOperandTails: operands longer than N are legal, and the
// entries past N must not reach the stopping test. norm(b) used to sum
// all of b while the residual covered N entries.
func TestCGIgnoresOperandTails(t *testing.T) {
	op, c := poissonOp(t, 15)
	invD, err := InvDiag(c)
	if err != nil {
		t.Fatal(err)
	}
	n := op.N
	b := testmat.RandVec(rand.New(rand.NewSource(12)), n)
	pad := func(v []float64) []float64 {
		return append(append([]float64(nil), v...), 1e9, -1e9, 1e9)
	}
	for _, s := range cgFamily {
		want := make([]float64, n)
		ref, err := s.solve(op, invD, b, want, 1e-9, 2000)
		if err != nil || !ref.Converged {
			t.Fatalf("%s: %v %+v", s.name, err, ref)
		}
		x := pad(make([]float64, n))
		res, err := s.solve(op, pad(invD), pad(b), x, 1e-9, 2000)
		if err != nil || res != ref {
			t.Errorf("%s padded: %v, result %+v, unpadded %+v", s.name, err, res, ref)
		}
		for i := range want {
			if x[i] != want[i] {
				t.Errorf("%s padded: x[%d] = %v, unpadded %v", s.name, i, x[i], want[i])
				break
			}
		}
		if x[n] != 1e9 || x[n+1] != -1e9 || x[n+2] != 1e9 {
			t.Errorf("%s wrote past N: tail %v", s.name, x[n:])
		}
	}
}

// TestCGAllocationsIndependentOfIterations: the sweep closures are
// built once per solve, so ten times the iterations allocate the same —
// inline and on an executor's pool.
func TestCGAllocationsIndependentOfIterations(t *testing.T) {
	c := matgen.Stencil2D(40)
	f, err := csr.FromCOO(c)
	if err != nil {
		t.Fatal(err)
	}
	e, err := parallel.NewExecutor(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	serial, err := FromFormat(f)
	if err != nil {
		t.Fatal(err)
	}
	invD, err := InvDiag(c)
	if err != nil {
		t.Fatal(err)
	}
	b := testmat.RandVec(rand.New(rand.NewSource(13)), f.Rows())
	x := make([]float64, f.Rows())
	for name, op := range map[string]Operator{"inline": serial, "pool": FromRunner(e, f.Rows())} {
		for _, s := range cgFamily {
			allocs := func(iters int) float64 {
				return testing.AllocsPerRun(5, func() {
					for i := range x {
						x[i] = 0
					}
					// tol 0 is never met: exactly iters iterations run.
					if res, err := s.solve(op, invD, b, x, 0, iters); err != nil || res.Iterations != iters {
						t.Fatalf("%s %s: %v %+v", name, s.name, err, res)
					}
				})
			}
			if few, many := allocs(4), allocs(40); few != many {
				t.Errorf("%s %s: %v allocations for 4 iterations, %v for 40", name, s.name, few, many)
			}
		}
	}
}
