package csr_test

import (
	"errors"
	"fmt"
	"testing"

	"spmv/internal/core"
	"spmv/internal/csr"
	"spmv/internal/matgen"
	"spmv/internal/parallel"
)

// A row pointer that runs backwards or past the non-zeros must stop the
// row walk with a typed corruption trap: before the walk checked each
// row's end, one such row panicked with a runtime bounds error, and in
// csr32 a backwards row summed nothing and left a silent zero.
func TestBadRowPointerTrapsAsCorrupt(t *testing.T) {
	c := matgen.Stencil2D(5)
	builders := []struct {
		name  string
		build func() (core.Format, []int32)
	}{
		{"csr", func() (core.Format, []int32) { m, _ := csr.FromCOO(c); return m, m.RowPtr }},
		{"csr32", func() (core.Format, []int32) { m, _ := csr.From32(c); return m, m.RowPtr }},
		{"csr-vi", func() (core.Format, []int32) { m, _ := csr.FromCOOVI(c); return m, m.RowPtr }},
	}
	mutations := []struct {
		name   string
		mutate func(rowPtr []int32, nnz int)
	}{
		{"decreasing", func(p []int32, _ int) { r := len(p) / 2; p[r] = p[r-1] - 1 }},
		{"past-nnz", func(p []int32, nnz int) { p[len(p)/2] = int32(nnz + 3) }},
		{"last-past-nnz", func(p []int32, nnz int) { p[len(p)-1] = int32(nnz + 1) }},
	}
	for _, b := range builders {
		for _, mu := range mutations {
			t.Run(b.name+"/"+mu.name, func(t *testing.T) {
				f, rowPtr := b.build()
				mu.mutate(rowPtr, f.NNZ())
				x := make([]float64, f.Cols())
				for i := range x {
					x[i] = 1
				}
				y := make([]float64, f.Rows())
				if err := recoverError(func() { f.SpMV(y, x) }); !errors.Is(err, core.ErrCorrupt) {
					t.Errorf("SpMV: got %v, want a panic with an ErrCorrupt error", err)
				}
				ex, err := parallel.NewExecutor(f, 2)
				if err != nil {
					t.Fatal(err)
				}
				defer ex.Close()
				if err := ex.Run(y, x); !errors.Is(err, core.ErrCorrupt) {
					t.Errorf("row executor Run: got %v, want ErrCorrupt", err)
				}
			})
		}
	}
}

// recoverError runs fn and returns the value it panicked with as an
// error; nil if fn returned normally.
func recoverError(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			e, ok := r.(error)
			if !ok {
				e = fmt.Errorf("non-error panic %v", r)
			}
			err = e
		}
	}()
	fn()
	return nil
}
