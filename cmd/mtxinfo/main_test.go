package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"spmv"
	"spmv/internal/matgen"
	"spmv/internal/roofline"
)

// TestReportEveryFormat runs report with -verify on a small Stencil2D
// file once per registry name, that name also given to -profile and
// -roofline, and checks every call succeeds, every name's size row
// verified, and the tune section has one line per candidate the tuner
// reports, CSR first. Which candidate wins is not checked: on a matrix
// this small the timings are host noise.
func TestReportEveryFormat(t *testing.T) {
	c := matgen.Stencil2D(12)
	path := writeMTX(t, c)
	var rep spmv.TuneReport
	if _, err := spmv.Build(c, spmv.WithTuneReport(&rep)); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, cand := range rep.Candidates {
		want = append(want, cand.Spec.Name())
	}
	if len(want) == 0 || want[0] != "csr" {
		t.Fatalf("tuner candidates %v: want csr first", want)
	}
	model := &roofline.Model{Source: roofline.SourceProbe, Host: "test", Ceilings: map[int]float64{1: 10, 2: 18}}
	for _, name := range spmv.FormatNames() {
		out := captureStdout(t, func() error { return report(path, true, name, name, model) })
		for _, want := range spmv.FormatNames() {
			if !rowVerified(out, want) {
				t.Errorf("-profile %s: no verified size row for %s in:\n%s", name, want, out)
			}
		}
		if got := tuneNames(out); !slices.Equal(got, want) {
			t.Errorf("-profile %s: tune section lists %v, want %v in:\n%s", name, got, want, out)
		}
	}
}

// TestRooflineNeedsArchive runs the built command with -roofline and a
// -roofdir that holds no probe archive: it must fail and name the
// archive it looked for, not fall back to a modelled ceiling.
func TestRooflineNeedsArchive(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "mtxinfo")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	path := writeMTX(t, matgen.Stencil2D(4))
	cmd := exec.Command(bin, "-roofline", "csr-du", "-roofdir", dir, path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err == nil {
		t.Fatal("mtxinfo -roofline without an archive exited 0")
	}
	if want := roofline.DefaultPath(dir, roofline.Hostname()); !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr does not name %s:\n%s", want, stderr.String())
	}
}

// writeMTX writes c as a Matrix Market file in a temporary directory
// and returns its path.
func writeMTX(t *testing.T, c *spmv.COO) string {
	t.Helper()
	var mtx bytes.Buffer
	if err := spmv.WriteMatrixMarket(&mtx, c); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.mtx")
	if err := os.WriteFile(path, mtx.Bytes(), 0o666); err != nil {
		t.Fatal(err)
	}
	return path
}

// tuneNames returns the candidate names of out's tune section, in the
// order printed.
func tuneNames(out string) []string {
	var names []string
	in := false
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "  tuned at "):
			in = true
		case in && strings.HasPrefix(line, "    "):
			names = append(names, strings.Fields(line)[0])
		default:
			in = false
		}
	}
	return names
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
