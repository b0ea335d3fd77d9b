package spmv_test

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"spmv"
)

// laplacian2D assembles the 5-point stencil on an n×n grid together
// with its dense image. Symmetric, banded and uniform-row, so every
// registered format (including sym-csr and ell) can represent it.
func laplacian2D(n int) (*spmv.COO, []float64) {
	dim := n * n
	c := spmv.NewCOO(dim, dim)
	dense := make([]float64, dim*dim)
	add := func(i, j int, v float64) {
		c.Add(i, j, v)
		dense[i*dim+j] += v
	}
	for r := 0; r < n; r++ {
		for q := 0; q < n; q++ {
			i := r*n + q
			add(i, i, 4)
			if q > 0 {
				add(i, i-1, -1)
			}
			if q < n-1 {
				add(i, i+1, -1)
			}
			if r > 0 {
				add(i, i-n, -1)
			}
			if r < n-1 {
				add(i, i+n, -1)
			}
		}
	}
	return c, dense
}

func denseSpMV(dense []float64, x []float64, dim int) []float64 {
	y := make([]float64, dim)
	for i := 0; i < dim; i++ {
		s := 0.0
		for j, xv := range x {
			s += dense[i*dim+j] * xv
		}
		y[i] = s
	}
	return y
}

// TestBuildRoundTripsEveryFormat: every name in FormatNames goes
// Build → Verify → SafeSpMV against the dense reference, and the
// batched path at k=1 is bitwise identical to the scalar kernel.
func TestBuildRoundTripsEveryFormat(t *testing.T) {
	c, dense := laplacian2D(10)
	dim := c.Rows()
	rng := rand.New(rand.NewSource(11))
	x := make([]float64, dim)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := denseSpMV(dense, x, dim)

	names := spmv.FormatNames()
	if len(names) == 0 {
		t.Fatal("FormatNames is empty")
	}
	for _, name := range names {
		f, err := spmv.Build(c, spmv.WithFormat(name))
		if err != nil {
			t.Errorf("%s: Build: %v", name, err)
			continue
		}
		if f.Name() == "" || f.NNZ() != c.Len() {
			t.Errorf("%s: Name %q NNZ %d, want nnz %d", name, f.Name(), f.NNZ(), c.Len())
		}
		if err := spmv.Verify(f); err != nil {
			t.Errorf("%s: Verify: %v", name, err)
			continue
		}
		y := make([]float64, dim)
		if err := spmv.SafeSpMV(f, y, x); err != nil {
			t.Errorf("%s: SafeSpMV: %v", name, err)
			continue
		}
		for i := range y {
			if math.Abs(y[i]-want[i]) > 1e-10 {
				t.Errorf("%s: y[%d] = %v, want %v", name, i, y[i], want[i])
				break
			}
		}
		// Batched with k=1 must be bitwise the scalar kernel, fused or
		// fallback alike.
		y1 := make([]float64, dim)
		if err := spmv.SafeSpMVBatch(f, y1, x, 1); err != nil {
			t.Errorf("%s: SafeSpMVBatch: %v", name, err)
			continue
		}
		for i := range y1 {
			if math.Float64bits(y1[i]) != math.Float64bits(y[i]) {
				t.Errorf("%s: batch k=1 y[%d] = %x, scalar %x", name, i,
					math.Float64bits(y1[i]), math.Float64bits(y[i]))
				break
			}
		}
		// And a wider panel must match per-column scalar runs.
		const k = 3
		xp := make([]float64, dim*k)
		for i := range xp {
			xp[i] = rng.NormFloat64()
		}
		yp := make([]float64, dim*k)
		if err := spmv.SafeSpMVBatch(f, yp, xp, k); err != nil {
			t.Errorf("%s: SafeSpMVBatch k=%d: %v", name, k, err)
			continue
		}
		xc := make([]float64, dim)
		yc := make([]float64, dim)
		for cc := 0; cc < k; cc++ {
			for j := range xc {
				xc[j] = xp[j*k+cc]
			}
			f.SpMV(yc, xc)
			for i := range yc {
				if math.Abs(yp[i*k+cc]-yc[i]) > 1e-10 {
					t.Errorf("%s: k=%d column %d row %d = %v, want %v",
						name, k, cc, i, yp[i*k+cc], yc[i])
					break
				}
			}
		}
	}
}

// TestBuildOptionsPublic exercises the options that change encoder
// behavior and the typed unknown-format error.
func TestBuildOptionsPublic(t *testing.T) {
	c, _ := laplacian2D(8)

	// Default is CSR.
	f, err := spmv.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "csr" {
		t.Errorf("default Build name %q, want csr", f.Name())
	}

	// DU options and workers reach the encoder; streams stay equivalent.
	serial, err := spmv.Build(c, spmv.WithFormat("csr-du"),
		spmv.WithDUOptions(spmv.DUOptions{RLE: true}))
	if err != nil {
		t.Fatal(err)
	}
	par, err := spmv.Build(c, spmv.WithFormat("csr-du"),
		spmv.WithDUOptions(spmv.DUOptions{RLE: true}), spmv.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if serial.SizeBytes() != par.SizeBytes() {
		t.Errorf("parallel encode size %d != serial %d", par.SizeBytes(), serial.SizeBytes())
	}

	// Unknown names, including the related-work formats the registry
	// no longer carries, are ErrUsage and list every valid name.
	for _, bad := range []string{"nope", "bcsr2x2", "bcsr4x4", "vbr", "jds", "cds", "hybrid"} {
		_, err = spmv.Build(c, spmv.WithFormat(bad))
		if err == nil {
			t.Fatalf("unknown format %q accepted", bad)
		}
		if !errors.Is(err, spmv.ErrUsage) {
			t.Errorf("%s: error %v does not wrap ErrUsage", bad, err)
		}
		for _, name := range spmv.FormatNames() {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("error %q does not mention %q", err, name)
			}
		}
	}
}

// TestNewExecutorOptsPublic drives the consolidated executor
// constructor, scalar and batched, with telemetry attached.
func TestNewExecutorOptsPublic(t *testing.T) {
	c, dense := laplacian2D(8)
	dim := c.Rows()
	f, err := spmv.Build(c, spmv.WithFormat("csr-du"))
	if err != nil {
		t.Fatal(err)
	}
	rec := spmv.NewRecorder()
	e, err := spmv.NewExecutorOpts(f, spmv.ExecOptions{Threads: 3, Collector: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	rng := rand.New(rand.NewSource(12))
	const k = 4
	xp := make([]float64, dim*k)
	for i := range xp {
		xp[i] = rng.NormFloat64()
	}
	yp := make([]float64, dim*k)
	if err := e.RunBatch(yp, xp, k); err != nil {
		t.Fatal(err)
	}
	xc := make([]float64, dim)
	for cc := 0; cc < k; cc++ {
		for j := range xc {
			xc[j] = xp[j*k+cc]
		}
		want := denseSpMV(dense, xc, dim)
		for i := range want {
			if math.Abs(yp[i*k+cc]-want[i]) > 1e-10 {
				t.Fatalf("column %d row %d = %v, want %v", cc, i, yp[i*k+cc], want[i])
			}
		}
	}
	if s := rec.Snapshot(); s.Runs != 1 || s.Last.Vectors != k {
		t.Errorf("telemetry runs %d vectors %d, want 1 and %d", s.Runs, s.Last.Vectors, k)
	}

	if _, err := spmv.NewExecutorOpts(f, spmv.ExecOptions{Partition: "spiral"}); !errors.Is(err, spmv.ErrUsage) {
		t.Errorf("unknown partition: %v, want ErrUsage", err)
	}

	// Traffic model: per-vector bytes fall with k.
	if !(spmv.BytesPerVector(f, 8) < spmv.BytesPerVector(f, 1)) {
		t.Error("BytesPerVector(f, 8) not below BytesPerVector(f, 1)")
	}
	if spmv.BytesPerSpMM(f, 1) != spmv.BytesPerSpMV(f) {
		t.Error("BytesPerSpMM(f, 1) != BytesPerSpMV(f)")
	}
}
