//go:build spmv_never_built

// This file is excluded by its build constraint under every real
// configuration. It redeclares a function of sample.go, so a loader
// that ignores //go:build lines fails type checking with a duplicate
// declaration — the regression TestLoaderRespectsBuildConstraints
// guards against.
package sample

func BadPanic() {}
