// Package testmat provides shared conformance checks for Format
// implementations: every storage scheme's test suite runs the same
// correctness battery (SpMV vs dense reference, Split invariants,
// parallel-equals-serial, trace sanity) over the same corpus of tricky
// matrices, so a new format gets full coverage by calling two functions.
package testmat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"spmv/internal/core"
	"spmv/internal/matgen"
)

// Builder constructs a format from a finalized COO (the signature all
// format constructors share).
type Builder func(c *core.COO) (core.Format, error)

// Case is one corpus matrix.
type Case struct {
	Name string
	COO  *core.COO
}

// Corpus returns the standard battery of matrices exercising the edge
// cases formats must handle: empty rows, single elements, full rows,
// huge column jumps, long dense runs, duplicate-heavy assembly, skewed
// row lengths, and low-unique-value matrices.
func Corpus() []Case {
	rng := rand.New(rand.NewSource(20080415)) // ICPP'08 submission-era seed
	var cases []Case
	add := func(name string, c *core.COO) { cases = append(cases, Case{name, c}) }

	add("empty", emptyCOO(5, 7))
	add("single", singleEntry(6, 6, 3, 4, 2.5))
	add("diag", diag(17))
	add("dense-row", denseRow(9, 33))
	add("empty-rows-mixed", emptyRowsMixed(rng))
	add("first-last-col", firstLastCol(40))
	add("one-row", oneRow(rng, 300))
	add("one-col", oneCol(rng, 300))
	add("stencil5", matgen.Stencil2D(13))
	add("stencil9", matgen.Stencil2D9(9))
	add("banded", matgen.Banded(rng, 250, 7, 6, matgen.Values{}))
	add("banded-unique8", matgen.Banded(rng, 250, 7, 6, matgen.Values{Unique: 8}))
	add("random", matgen.RandomUniform(rng, 180, 260, 7, matgen.Values{}))
	add("random-wide", matgen.RandomUniform(rng, 50, 5000, 9, matgen.Values{}))
	add("powerlaw", matgen.PowerLaw(rng, 400, 6, 0.8, matgen.Values{}))
	add("blockdiag", matgen.BlockDiag(rng, 12, 5, matgen.Values{Unique: 3}))
	add("femlike", matgen.FEMLike(rng, 220, 5, matgen.Values{Unique: 50}))
	add("long-rows-255plus", longRows(rng, 8, 700))
	return cases
}

// EncoderCases is the corpus plus scaled-down instances of the
// benchmark's two generators (SkewedRows, Stencil3D), a 2-D stencil and
// a matrix whose val_ind is 16 bits: the matrices whose encoded bytes
// the encoders' tests pin.
func EncoderCases() []Case {
	cases := Corpus()
	rng := rand.New(rand.NewSource(1))
	return append(cases,
		Case{Name: "bench-scatter", COO: matgen.SkewedRows(rng, 20000, 8, 0, 0.2, matgen.Values{})},
		Case{Name: "bench-stencil3d", COO: matgen.Stencil3D(20)},
		Case{Name: "bench-stencil2d", COO: matgen.Stencil2D(64)},
		Case{Name: "banded-unique1000", COO: matgen.Banded(rng, 3000, 9, 8, matgen.Values{Unique: 1000})},
	)
}

func emptyCOO(r, c int) *core.COO {
	m := core.NewCOO(r, c)
	m.Finalize()
	return m
}

func singleEntry(r, c, i, j int, v float64) *core.COO {
	m := core.NewCOO(r, c)
	m.Add(i, j, v)
	m.Finalize()
	return m
}

func diag(n int) *core.COO {
	m := core.NewCOO(n, n)
	for i := 0; i < n; i++ {
		m.Add(i, i, float64(i+1))
	}
	m.Finalize()
	return m
}

func denseRow(rows, cols int) *core.COO {
	m := core.NewCOO(rows, cols)
	for j := 0; j < cols; j++ {
		m.Add(rows/2, j, float64(j)-3.5)
	}
	m.Add(0, 0, 1)
	m.Finalize()
	return m
}

func emptyRowsMixed(rng *rand.Rand) *core.COO {
	m := core.NewCOO(60, 60)
	for i := 0; i < 60; i += 3 { // rows ≡ 1,2 mod 3 stay empty
		for k := 0; k < 4; k++ {
			m.Add(i, rng.Intn(60), rng.NormFloat64())
		}
	}
	m.Finalize()
	return m
}

func firstLastCol(n int) *core.COO {
	m := core.NewCOO(n, n)
	for i := 0; i < n; i++ {
		m.Add(i, 0, 1.5)
		m.Add(i, n-1, -2.5) // max column jump in every row
	}
	m.Finalize()
	return m
}

func oneRow(rng *rand.Rand, n int) *core.COO {
	m := core.NewCOO(1, n)
	for j := 0; j < n; j += 1 + rng.Intn(3) {
		m.Add(0, j, rng.NormFloat64())
	}
	m.Finalize()
	return m
}

func oneCol(rng *rand.Rand, n int) *core.COO {
	m := core.NewCOO(n, 1)
	for i := 0; i < n; i += 1 + rng.Intn(2) {
		m.Add(i, 0, rng.NormFloat64())
	}
	m.Finalize()
	return m
}

// longRows builds rows longer than 255 nnz to exercise CSR-DU's 1-byte
// usize limit (units must split within a row).
func longRows(rng *rand.Rand, rows, perRow int) *core.COO {
	m := core.NewCOO(rows, 4*perRow)
	for i := 0; i < rows; i++ {
		for k := 0; k < perRow; k++ {
			m.Add(i, rng.Intn(4*perRow), rng.NormFloat64())
		}
	}
	m.Finalize()
	return m
}

// CheckFormat runs the full conformance battery for one format builder.
func CheckFormat(t *testing.T, build Builder) {
	t.Helper()
	for _, tc := range Corpus() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			f, err := build(tc.COO)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			checkMeta(t, f, tc.COO)
			checkSpMV(t, f, tc.COO)
			checkBatch(t, f, tc.COO)
			if s, ok := f.(core.Splitter); ok {
				checkSplit(t, f, s, tc.COO)
			}
			if p, ok := f.(core.Placer); ok {
				checkTrace(t, f, p)
			}
		})
	}
}

func checkMeta(t *testing.T, f core.Format, c *core.COO) {
	t.Helper()
	if f.Rows() != c.Rows() || f.Cols() != c.Cols() {
		t.Errorf("dims = %dx%d, want %dx%d", f.Rows(), f.Cols(), c.Rows(), c.Cols())
	}
	if f.NNZ() != c.Len() {
		t.Errorf("NNZ = %d, want %d", f.NNZ(), c.Len())
	}
	if f.SizeBytes() < 0 {
		t.Errorf("SizeBytes = %d", f.SizeBytes())
	}
	if f.Name() == "" {
		t.Error("empty Name")
	}
}

func checkSpMV(t *testing.T, f core.Format, c *core.COO) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	d := core.DenseFromCOO(c)
	x := RandVec(rng, c.Cols())
	want := make([]float64, c.Rows())
	d.SpMV(want, x)

	// y must be fully overwritten: poison it first.
	got := make([]float64, c.Rows())
	for i := range got {
		got[i] = math.NaN()
	}
	f.SpMV(got, x)
	AssertClose(t, "SpMV", got, want, 1e-10)
}

// checkBatch verifies the batched path (core.SpMVBatch: the format's
// fused kernel when it implements core.BatchFormat, the per-column
// fallback otherwise) against the dense reference, including the
// bitwise k=1 contract and the batched chunk kernels.
func checkBatch(t *testing.T, f core.Format, c *core.COO) {
	t.Helper()
	rng := rand.New(rand.NewSource(101))
	d := core.DenseFromCOO(c)
	rows, cols := c.Rows(), c.Cols()

	// k = 1: the panel degenerates to the vector, and the contract is
	// bitwise equality with the scalar kernel.
	x1 := RandVec(rng, cols)
	wantScalar := make([]float64, rows)
	f.SpMV(wantScalar, x1)
	got1 := make([]float64, rows)
	for i := range got1 {
		got1[i] = math.NaN()
	}
	core.SpMVBatch(f, got1, x1, 1)
	for i := range got1 {
		if !core.SameBits(got1[i], wantScalar[i]) {
			t.Fatalf("SpMVBatch k=1: element %d = %v, scalar SpMV = %v (must match bitwise)",
				i, got1[i], wantScalar[i])
		}
	}

	for _, k := range []int{2, 3, 4, 8} {
		x := RandVec(rng, cols*k)
		want := batchReference(d, x, k)
		got := make([]float64, rows*k)
		for i := range got {
			got[i] = math.NaN()
		}
		core.SpMVBatch(f, got, x, k)
		AssertClose(t, fmt.Sprintf("SpMVBatch k=%d", k), got, want, 1e-10)

		// Batched chunk kernels: running every chunk must reproduce the
		// full panel (rows no chunk covers are the executor's to zero).
		s, ok := f.(core.Splitter)
		if !ok {
			continue
		}
		chunks := s.Split(3)
		batched := len(chunks) > 0
		for _, ch := range chunks {
			if _, ok := ch.(core.BatchChunk); !ok {
				batched = false
			}
		}
		if !batched {
			continue
		}
		cgot := make([]float64, rows*k)
		for i := range cgot {
			cgot[i] = math.NaN()
		}
		covered := make([]bool, rows)
		for _, ch := range chunks {
			ch.(core.BatchChunk).SpMVBatch(cgot, x, k)
			lo, hi := ch.RowRange()
			for i := lo; i < hi; i++ {
				covered[i] = true
			}
		}
		for i := range covered {
			if covered[i] {
				continue
			}
			for cc := 0; cc < k; cc++ {
				if !core.IsZero(want[i*k+cc]) {
					t.Fatalf("Split batch k=%d: uncovered row %d has non-zero result", k, i)
				}
				cgot[i*k+cc] = 0
			}
		}
		AssertClose(t, fmt.Sprintf("chunked SpMVBatch k=%d", k), cgot, want, 1e-10)
	}
}

// batchReference computes the dense reference panel column by column.
func batchReference(d *core.Dense, x []float64, k int) []float64 {
	want := make([]float64, d.R*k)
	xc := make([]float64, d.C)
	yc := make([]float64, d.R)
	for c := 0; c < k; c++ {
		for j := range xc {
			xc[j] = x[j*k+c]
		}
		d.SpMV(yc, xc)
		for i, v := range yc {
			want[i*k+c] = v
		}
	}
	return want
}

func checkSplit(t *testing.T, f core.Format, s core.Splitter, c *core.COO) {
	t.Helper()
	rng := rand.New(rand.NewSource(100))
	d := core.DenseFromCOO(c)
	x := RandVec(rng, c.Cols())
	want := make([]float64, c.Rows())
	d.SpMV(want, x)

	for _, n := range []int{1, 2, 3, 8, 64} {
		chunks := s.Split(n)
		if len(chunks) > n {
			t.Fatalf("Split(%d) returned %d chunks", n, len(chunks))
		}
		// Chunks are ordered, disjoint, and cover all non-empty rows.
		next := 0
		total := 0
		for _, ch := range chunks {
			lo, hi := ch.RowRange()
			if lo < next || hi <= lo || hi > c.Rows() {
				t.Fatalf("Split(%d): bad chunk range [%d,%d) after %d", n, lo, hi, next)
			}
			next = hi
			total += ch.NNZ()
		}
		if total != c.Len() {
			t.Fatalf("Split(%d): chunk NNZs sum to %d, want %d", n, total, c.Len())
		}
		// Running every chunk serially must reproduce the full SpMV.
		got := make([]float64, c.Rows())
		for i := range got {
			got[i] = math.NaN()
		}
		for _, ch := range chunks {
			ch.SpMV(got, x)
		}
		// Rows not covered by any chunk (all-empty tail) stay NaN; the
		// executor zeroes those. Zero them here the same way.
		covered := make([]bool, c.Rows())
		for _, ch := range chunks {
			lo, hi := ch.RowRange()
			for i := lo; i < hi; i++ {
				covered[i] = true
			}
		}
		for i := range got {
			if !covered[i] {
				if !core.IsZero(want[i]) {
					t.Fatalf("Split(%d): uncovered row %d has non-zero result", n, i)
				}
				got[i] = 0
			}
		}
		AssertClose(t, "chunked SpMV", got, want, 1e-10)
	}
}

func checkTrace(t *testing.T, f core.Format, p core.Placer) {
	t.Helper()
	s, ok := f.(core.Splitter)
	if !ok {
		return
	}
	a := core.NewArena()
	p.Place(a)
	xBase := a.Alloc(int64(f.Cols()) * 8)
	yBase := a.Alloc(int64(f.Rows()) * 8)
	var accesses, writes, xGathers int
	for _, ch := range s.Split(3) {
		tr, ok := ch.(core.Tracer)
		if !ok {
			t.Fatalf("format %s is a Placer but chunk is not a Tracer", f.Name())
		}
		tr.TraceSpMV(xBase, yBase, func(acc core.Access) {
			accesses++
			if acc.Write {
				writes++
			}
			if acc.Addr >= xBase && acc.Addr < xBase+uint64(f.Cols())*8 {
				xGathers++
			}
			if acc.Size == 0 {
				t.Error("zero-size access")
			}
		})
	}
	if f.NNZ() > 0 {
		// Gather formats emit one x access per stored element; streaming
		// formats may legitimately coalesce x to cache lines. Require
		// only that x is touched at all — exact per-nnz counts are
		// asserted in the gather formats' own tests.
		if xGathers == 0 {
			t.Error("trace emitted no x accesses")
		}
		if writes == 0 {
			t.Error("trace emitted no writes (y stores missing)")
		}
	}
	if f.NNZ() == 0 && accesses > f.Rows()+2 {
		t.Errorf("empty matrix traced %d accesses", accesses)
	}
}

// RandVec returns a deterministic random vector.
func RandVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// AssertClose fails if any |got-want| exceeds tol·(1+|want|).
func AssertClose(t *testing.T, what string, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	for i := range got {
		diff := math.Abs(got[i] - want[i])
		if diff > tol*(1+math.Abs(want[i])) || math.IsNaN(got[i]) {
			t.Fatalf("%s: element %d = %v, want %v (diff %v)", what, i, got[i], want[i], diff)
		}
	}
}
