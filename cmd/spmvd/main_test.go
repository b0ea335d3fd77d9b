package main

import (
	"os/exec"
	"path/filepath"
	"testing"
)

// TestSelfcheck builds spmvd and runs -selfcheck -quiet as a child
// process: the selfcheck ends by sending SIGTERM to its own process,
// which must not be the test binary.
func TestSelfcheck(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "spmvd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	if out, err := exec.Command(bin, "-selfcheck", "-quiet").CombinedOutput(); err != nil {
		t.Fatalf("spmvd -selfcheck: %v\n%s", err, out)
	}
}
