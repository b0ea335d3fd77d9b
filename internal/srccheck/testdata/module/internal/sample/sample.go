// Package sample is the rule fixture: each construct below either
// must or must not be reported, and srccheck_test.go asserts the
// exact finding set.
package sample

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync"

	"fixture/internal/core"
)

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

// spmvBody is a hot-kernel function by name: the formatted call, the
// interface boxing and the defer inside the loop must be reported;
// the typed panic, the defer outside the loop and the defer inside a
// literal's body must not.
func spmvBody(y, x []float64, sink func(any), release func()) {
	defer release()
	fmt.Println("formatting in a kernel") // want: hotpath fmt call
	sink(42)                              // want: hotpath boxing
	if len(y) != len(x) {
		panic(core.Corruptf("sample: shape")) // exempt: cold trap
	}
	for i := range y {
		defer release() // want: hotpath looped defer
		func() {
			defer release()
			y[i] = x[i]
		}()
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
func Helper(sink func(any), release func()) {
	fmt.Println("cold path")
	sink(42)
	for range 2 {
		defer release()
	}
}

// SpawnAndAbandon sends from a goroutine on a channel it made
// unbuffered and can return without receiving: goroleak must fire.
func SpawnAndAbandon(fail bool) error {
	ch := make(chan error)
	go func() { ch <- mayFail() }() // want: goroleak
	if fail {
		return errors.New("sample: abandoned")
	}
	return <-ch
}

// SpawnBuffered is the fixed shape, and the rest are not sends on an
// unbuffered channel the spawner made: no findings.
func SpawnBuffered(stop chan struct{}, out chan error) error {
	ch := make(chan error, 1)
	go func() { ch <- mayFail() }()
	done := make(chan struct{})
	go func() {
		<-done // a receive: closing done releases it
		out <- nil
		select {
		case ch <- nil: // one arm of a select can be bypassed
		case <-stop:
		}
	}()
	close(done)
	return <-ch
}

// AddsInsideGoroutine counts the group inside the goroutine: Wait can
// return before it runs, and wgbalance must fire.
func AddsInsideGoroutine(work func()) {
	var wg sync.WaitGroup
	go func() {
		wg.Add(1) // want: wgbalance
		defer wg.Done()
		work()
	}()
	wg.Wait()
}

// AddsBeforeSpawn counts each goroutine before its go statement, also
// from inside a goroutine for a nested one: no findings.
func AddsBeforeSpawn(work func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var inner sync.WaitGroup
		inner.Add(1)
		go func() {
			defer inner.Done()
			work()
		}()
		inner.Wait()
	}()
	wg.Wait()
}

// guarded holds a lock its methods take.
type guarded struct {
	mu sync.Mutex
	n  int
}

// Stuck takes the lock and never releases it: lockbalance must fire.
func (g *guarded) Stuck() int {
	g.mu.Lock() // want: lockbalance
	return g.n
}

// Released, Branches and Closure release the lock they take, by
// defer, on each branch, or in a deferred literal: no findings.
func (g *guarded) Released() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n
}

func (g *guarded) Branches(add bool) {
	g.mu.Lock()
	if add {
		g.n++
		g.mu.Unlock()
		return
	}
	g.mu.Unlock()
}

func (g *guarded) Closure() {
	g.mu.Lock()
	defer func() {
		g.n++
		g.mu.Unlock()
	}()
}
