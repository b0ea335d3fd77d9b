package main

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"spmv"
	"spmv/internal/matgen"
)

// writeMTX writes c as a Matrix Market file under dir and returns its
// path.
func writeMTX(t *testing.T, dir, name string, c *spmv.COO) string {
	t.Helper()
	var buf bytes.Buffer
	if err := spmv.WriteMatrixMarket(&buf, c); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf.Bytes(), 0o666); err != nil {
		t.Fatal(err)
	}
	return path
}

// readMTX reads a Matrix Market file back into finalized triplets.
func readMTX(t *testing.T, path string) *spmv.COO {
	t.Helper()
	c, err := readFile(path, spmv.ReadMatrixMarket)
	if err != nil {
		t.Fatal(err)
	}
	c.Finalize()
	return c
}

// TestRoundTripEveryWritableName converts .mtx -> binary -> .mtx under
// every registry name plus csr-du-rle, on a matrix whose values a
// dictionary indexes and on one whose values it cannot pay for. Every
// name the container holds must give back the same triplets bit for
// bit; csr32 and sym-csr, which it does not hold, must fail without
// creating the output.
func TestRoundTripEveryWritableName(t *testing.T) {
	unwritable := []string{"csr32", "sym-csr"}
	mats := map[string]*spmv.COO{
		"stencil": matgen.Stencil2D(8),
		"banded":  matgen.Banded(rand.New(rand.NewSource(3)), 60, 4, 3, matgen.Values{}),
	}
	for mname, c := range mats {
		dir := t.TempDir()
		in := writeMTX(t, dir, mname+".mtx", c)
		want := readMTX(t, in)
		for _, name := range append(spmv.FormatNames(), "csr-du-rle") {
			bin := filepath.Join(dir, name+".spmv")
			back := filepath.Join(dir, name+".mtx")
			err := run(in, bin, name, false, io.Discard)
			if slices.Contains(unwritable, name) {
				if err == nil {
					t.Errorf("%s/%s: written, want an error", mname, name)
				}
				if _, serr := os.Stat(bin); !os.IsNotExist(serr) {
					t.Errorf("%s/%s: failed conversion left %s behind (%v)", mname, name, bin, serr)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s/%s: %v", mname, name, err)
				continue
			}
			if err := run(bin, back, "", true, io.Discard); err != nil {
				t.Errorf("%s/%s: back to .mtx: %v", mname, name, err)
				continue
			}
			got := readMTX(t, back)
			if got.Rows() != want.Rows() || got.Cols() != want.Cols() || got.Len() != want.Len() {
				t.Errorf("%s/%s: %dx%d with %d nnz, want %dx%d with %d", mname, name,
					got.Rows(), got.Cols(), got.Len(), want.Rows(), want.Cols(), want.Len())
				continue
			}
			for k := 0; k < want.Len(); k++ {
				gi, gj, gv := got.At(k)
				wi, wj, wv := want.At(k)
				if gi != wi || gj != wj || math.Float64bits(gv) != math.Float64bits(wv) {
					t.Errorf("%s/%s: entry %d is (%d,%d)=%v, want (%d,%d)=%v", mname, name, k, gi, gj, gv, wi, wj, wv)
					break
				}
			}
		}
	}
}

// TestFailedConversionKeepsOutput: an unknown -to or a malformed input
// fails before the output is created, so an existing file keeps its
// bytes.
func TestFailedConversionKeepsOutput(t *testing.T) {
	dir := t.TempDir()
	good := writeMTX(t, dir, "a.mtx", matgen.Stencil2D(4))
	bad := filepath.Join(dir, "bad.mtx")
	if err := os.WriteFile(bad, []byte("%%MatrixMarket matrix coordinate real general\n3 3 1\n9 9 1.0\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "existing.spmv")
	keep := []byte("bytes that must survive")
	if err := os.WriteFile(out, keep, 0o666); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ what, in, to string }{
		{"bad -to", good, "bogus"},
		{"malformed input", bad, "csr-du"},
		{"unwritable format", good, "csr32"},
	} {
		if err := run(tc.in, out, tc.to, false, io.Discard); err == nil {
			t.Errorf("%s: conversion succeeded", tc.what)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, keep) {
			t.Errorf("%s: output is now %q, want %q", tc.what, got, keep)
		}
	}
}
