package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spmv"
	"spmv/internal/matgen"
	"spmv/internal/memsim"
	"spmv/internal/roofline"
)

// TestReportEveryFormat runs report with -verify on a small Stencil2D
// file once per registry name, that name also given to -profile and
// -roofline, and checks every call succeeds and every name's size row
// verified.
func TestReportEveryFormat(t *testing.T) {
	dir := t.TempDir()
	var mtx bytes.Buffer
	if err := spmv.WriteMatrixMarket(&mtx, matgen.Stencil2D(12)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "stencil.mtx")
	if err := os.WriteFile(path, mtx.Bytes(), 0o666); err != nil {
		t.Fatal(err)
	}
	model := roofline.Analytic(memsim.Clovertown())
	for _, name := range spmv.FormatNames() {
		out := captureStdout(t, func() error { return report(path, true, name, name, model) })
		for _, want := range spmv.FormatNames() {
			if !rowVerified(out, want) {
				t.Errorf("-profile %s: no verified size row for %s in:\n%s", name, want, out)
			}
		}
	}
}

// rowVerified reports whether out's size row for name ends in "ok".
func rowVerified(out, name string) bool {
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, fmt.Sprintf("  %-10s ", name)) && strings.HasSuffix(line, "   ok") {
			return true
		}
	}
	return false
}

// captureStdout runs fn with os.Stdout sent to a file and returns what
// it printed; fn's error fails the test.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
