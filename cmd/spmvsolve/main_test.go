package main

import (
	"os"
	"path/filepath"
	"testing"

	"spmv/internal/matgen"
	"spmv/internal/mmio"
)

// TestRunConverges solves a 2-D Poisson system with the tuner's format,
// with csr-du and with sym-csr (which the tuner may pick, and which
// runs on the symmetric executor), on one thread and on two.
func TestRunConverges(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stencil.mtx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := mmio.Write(f, matgen.Stencil2D(24)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"auto", "csr-du", "sym-csr"} {
		for _, threads := range []int{1, 2} {
			if err := run(path, "cg", format, threads, 1e-8, 10000, 30, false, threads > 1); err != nil {
				t.Errorf("-format %s -threads %d: %v", format, threads, err)
			}
		}
	}
}
