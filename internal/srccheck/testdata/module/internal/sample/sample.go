// Package sample is the rule fixture: each construct below either
// must or must not be reported, and srccheck_test.go asserts the
// exact finding set.
package sample

import (
	"bytes"
	"errors"
	"fmt"
	"os"

	"fixture/internal/core"
)

// BadFormat implements core.Format but not core.Verifier: the
// verifier rule must fire on it.
type BadFormat struct{ n int }

func (b *BadFormat) Name() string        { return "bad" }
func (b *BadFormat) Rows() int           { return b.n }
func (b *BadFormat) Cols() int           { return b.n }
func (b *BadFormat) NNZ() int            { return 0 }
func (b *BadFormat) SizeBytes() int64    { return 0 }
func (b *BadFormat) SpMV(y, x []float64) {}

// GoodFormat implements both interfaces: no finding.
type GoodFormat struct{ n int }

func (g *GoodFormat) Name() string        { return "good" }
func (g *GoodFormat) Rows() int           { return g.n }
func (g *GoodFormat) Cols() int           { return g.n }
func (g *GoodFormat) NNZ() int            { return 0 }
func (g *GoodFormat) SizeBytes() int64    { return 0 }
func (g *GoodFormat) SpMV(y, x []float64) {}
func (g *GoodFormat) Verify() error       { return nil }

// NotAFormat implements neither: no finding.
type NotAFormat struct{}

// BadPanic panics with a bare string: the panics rule must fire.
func BadPanic() {
	panic("sample: bare panic")
}

// GoodPanic panics with a typed error: exempt.
func GoodPanic() {
	panic(core.Corruptf("sample: typed panic"))
}

func mayFail() error           { return errors.New("x") }
func twoResults() (int, error) { return 0, errors.New("x") }

// DropsErrors discards errors four ways: the droppederr rule must
// fire on each.
func DropsErrors() int {
	mayFail()            // want: bare call
	defer mayFail()      // want: defer
	go mayFail()         // want: go
	n, _ := twoResults() // want: blank slot
	_ = mayFail()        // want: blank assign
	return n
}

// HandlesErrors checks or propagates everything plus uses the exempt
// print family: no findings.
func HandlesErrors() error {
	if err := mayFail(); err != nil {
		return err
	}
	fmt.Println("console is exempt")
	fmt.Fprintf(os.Stderr, "stderr is exempt\n")
	var buf bytes.Buffer
	buf.WriteString("in-memory sinks are exempt")
	fmt.Fprintf(&buf, "also via Fprintf\n")
	return mayFail()
}

// FloatCompares has one violating and one clean comparison.
func FloatCompares(a, b float64, i, j int) bool {
	if a == b { // want: floateq
		return true
	}
	return i == j // ints are fine
}

// SpMV is a hot-kernel function by name: the formatted call and the
// interface boxing must be reported; the typed panic must not.
func (b *BadFormat) spmvBody(y, x []float64, sink func(any)) {
	fmt.Println("formatting in a kernel") // want: hotpath fmt call
	sink(42)                              // want: hotpath boxing
	if len(y) != len(x) {
		panic(core.Corruptf("sample: shape")) // exempt: cold trap
	}
}

// spmvGeneric is a generic hot kernel: V(2) and V(1) convert to the
// type argument, a concrete type, and must not be reported; any(v)
// boxes and must be.
func spmvGeneric[V float32 | float64](y []V, sink func(any)) {
	for i := range y {
		y[i] = y[i] * V(2) / V(1)
	}
	sink(any(y[0])) // want: hotpath boxing
}

// Helper is not hot: the same constructs are fine here.
func Helper(sink func(any)) {
	fmt.Println("cold path")
	sink(42)
}
