package main

import (
	"path/filepath"
	"testing"
)

// TestModuleSourceRulesClean asserts the repo itself carries zero
// findings for the full source-rule suite. The compile and alloc gates
// are skipped here (they shell out to go build and have their own
// tests under internal/srccheck/compile); verify.sh runs the full
// three layers.
func TestModuleSourceRulesClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	code := run([]string{
		"-disable=compile,alloc",
		"-root=" + root,
		"./...",
	})
	if code != 0 {
		t.Fatalf("spmvlint source rules = exit %d, want 0 (run `go run ./cmd/spmvlint -disable=compile,alloc ./...` for the findings)", code)
	}
}
