// Package parallel is the multithreaded SpMV runtime: the Go analogue
// of the paper's pthread row-partitioned kernel driver (§II-C, §VI-A).
//
// Every executor is one persistent worker pool — one goroutine per
// worker, the analogue of a pinned thread — so that iterative workloads
// (the paper measures 128 consecutive SpMV operations) pay goroutine
// startup once, not per iteration. The pool (pool.go) owns the
// lifecycle once for all five schemes: workers, run lock, Close, the
// closed/context/shape checks, telemetry and tracing, RunIters, and the
// per-column RunBatch fallback. A scheme supplies only its construction,
// its worker body and its phase sequence. The row scheme (Executor)
// self-schedules: the matrix is cut once into fixed row units that the
// workers claim from one counter, so §II-C's equal non-zero shares are
// only the starting point and a slow stretch of rows no longer holds
// the barrier. Row partitioning (Executor, NNZExecutor) needs no
// reduction because units write disjoint y ranges, bar the nnz scheme's
// split rows; the column-, symmetric- and block-partitioned executors
// give each worker a private y and reduce, as §II-C prescribes.
//
// Every executor accepts an obs.Collector (SetCollector) that receives
// one RunStat per run, failed runs included: per-worker busy time,
// non-zero counts and load imbalance. With no collector attached the
// instrumentation cost is one nil check per run and per worker
// dispatch — no clock reads, no allocation — so benchmarks with
// collection disabled measure the same kernels the spmvlint compile
// gate baselines.
package parallel

import (
	"errors"
	"fmt"
	"sync/atomic"

	"spmv/internal/core"
	"spmv/internal/obs"
)

// unitNNZ is the non-zero budget of one self-scheduled row unit,
// picked from a sweep of 2^15..2^19 on the benchmark matrices (DESIGN
// §14, "Self-scheduled row units"; BenchmarkRowSchedule): smaller units
// ran slower on the stencils, larger ones left more of the skewed
// matrix's tail on one worker.
const unitNNZ = 1 << 17

// Executor runs row-partitioned multithreaded SpMV for one matrix.
// Create with NewExecutor, use Run/RunIters any number of times, and
// Close when done. Run after Close returns an error wrapping
// core.ErrUsage.
//
// The matrix is cut once, at construction, into row units of about
// unitNNZ non-zeros (never fewer units than workers), and every run the
// workers claim units from one shared counter until none are left, so
// a worker slowed by a cache-hostile range sheds the rest of the
// matrix to the others instead of holding the barrier. A unit never
// splits a row, so every row is still summed left to right from +0 by
// the format's own chunk kernel and y is bitwise the serial result
// whatever the thread count or claim order.
//
// Run, RunBatch and Close serialize on an internal mutex, so a server
// pool may share one executor across goroutines and shut it down while
// runs are in flight: concurrent calls queue, double-Close is a no-op,
// and a Close racing a Run never panics — the loser observes the
// closed state and returns the usage error.
//
// The executor is fault-tolerant: operand lengths are validated before
// any worker touches them, and a kernel panic inside a worker — the
// compressed formats' kernels trust their streams and panic on corrupt
// bytes — is recovered and returned as an error naming the offending
// unit's row range, instead of killing the process.
type Executor struct {
	pool
	units []core.Chunk
	errs  []error      // per-unit error slot of the current run
	next  atomic.Int64 // index of the next unclaimed unit
	order []int        // claim order of the units; nil ⇒ unit order (tests permute it)
}

// NewExecutor cuts f into self-scheduled row units and starts
// min(nthreads, units) workers. It returns an error if the format does
// not support row partitioning.
func NewExecutor(f core.Format, nthreads int) (*Executor, error) {
	return newExecutor(f, nthreads, unitNNZ)
}

// newExecutor is NewExecutor with the unit budget as a parameter, for
// the unit-size sweep and for tests that need many units on a small
// matrix.
func newExecutor(f core.Format, nthreads, budget int) (*Executor, error) {
	s, ok := f.(core.Splitter)
	if !ok {
		return nil, fmt.Errorf("parallel: format %s does not support row partitioning", f.Name())
	}
	if nthreads <= 0 {
		return nil, fmt.Errorf("parallel: invalid thread count %d", nthreads)
	}
	e := &Executor{units: s.Split(max(nthreads, (f.NNZ()+budget-1)/budget))}
	e.errs = make([]error, len(e.units))
	layout := make([]obs.ChunkStat, min(nthreads, len(e.units)))
	for w := range layout {
		layout[w] = obs.ChunkStat{Worker: w}
	}
	e.pool = pool{partition: "row", rows: f.Rows(), cols: f.Cols(),
		gaps: rowGaps(e.units, f.Rows()), fused: fusable(e.units), layout: layout,
		body: e.claim, phases: e.runPhases}
	e.start()
	return e, nil
}

// runPhases resets the claim counter and the per-unit error slots,
// hands the job to every worker and joins the errors in unit order.
// Workers are quiescent between dispatches, so the resets need no
// synchronization beyond the channel sends that publish them.
func (e *Executor) runPhases(j job) error {
	e.next.Store(0)
	clear(e.errs)
	e.dispatch(&j)
	return errors.Join(e.errs...)
}

// claim is worker w's share of one run: units taken from the shared
// counter until none are left. Each index is handed out by exactly one
// fetch-add, so every unit runs once and its error slot is written
// race-free; units write disjoint y rows, so nothing else is shared.
// With a collector attached the worker's stat counts the units and
// non-zeros it ran.
func (e *Executor) claim(w int, j job) error {
	for {
		u := int(e.next.Add(1) - 1)
		if u >= len(e.units) {
			return nil
		}
		if e.order != nil {
			u = e.order[u]
		}
		e.errs[u] = runChunk(e.units[u], j)
		if j.stats != nil {
			j.stats[w].Units++
			j.stats[w].NNZ += e.units[u].NNZ()
		}
	}
}

// runChunk executes one chunk kernel with panic containment, so a
// corrupt stream takes down one Run call, not the process. Jobs with
// k > 1 run the chunk's fused batch kernel; RunBatch only dispatches
// them when every chunk implements core.BatchChunk.
func runChunk(ch core.Chunk, j job) (err error) {
	lo, hi := ch.RowRange()
	defer func() {
		if r := recover(); r != nil {
			err = chunkError(lo, hi, r)
		}
	}()
	if j.k > 1 {
		ch.(core.BatchChunk).SpMVBatch(j.y, j.x, j.k)
	} else {
		ch.SpMV(j.y, j.x)
	}
	return nil
}

// Each runs fn(worker, workers) once on every persistent worker and
// blocks until all have returned: the pool lent to callers whose dense
// vector work sits between multiplies (solver.CG's sweeps), so they
// need no second set of goroutines. It takes the run lock like Run —
// calls queue behind in-flight multiplies, after Close the error wraps
// core.ErrUsage — and a panicking fn comes back as an error naming the
// worker, leaving the executor usable. fn must split its work by the
// (worker, workers) pair it is handed; no telemetry is recorded, a
// sweep is not an SpMV.
func (e *Executor) Each(fn func(worker, workers int)) error {
	if fn == nil {
		return core.Usagef("parallel: Each with nil function")
	}
	return e.each(fn)
}
