// Package parallel is the multithreaded SpMV runtime: the Go analogue
// of the paper's pthread row-partitioned kernel driver (§II-C, §VI-A).
//
// Every executor is one persistent worker pool — one goroutine per
// worker, the analogue of a pinned thread — so that iterative workloads
// (the paper measures 128 consecutive SpMV operations) pay goroutine
// startup once, not per iteration. The pool (pool.go) owns the
// lifecycle once for all six schemes: workers, run lock, Close, the
// closed/context/shape checks, telemetry and tracing, RunIters, and the
// per-column RunBatch fallback. A scheme supplies only its construction,
// its worker body and its phase sequence. Row partitioning (Executor,
// StealExecutor, NNZExecutor) needs no reduction because chunks write
// disjoint y ranges, bar the nnz scheme's split rows; the column-,
// symmetric- and block-partitioned executors give each worker a private
// y and reduce, as §II-C prescribes.
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
	"fmt"

	"spmv/internal/core"
	"spmv/internal/obs"
)

// Executor runs row-partitioned multithreaded SpMV for one matrix.
// Create with NewExecutor, use Run/RunIters any number of times, and
// Close when done. Run after Close returns an error wrapping
// core.ErrUsage.
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
// chunk's row range, instead of killing the process.
type Executor struct {
	pool
	chunks []core.Chunk
}

// NewExecutor partitions f into at most nthreads nnz-balanced row
// chunks and starts one worker per chunk. It returns an error if the
// format does not support row partitioning.
func NewExecutor(f core.Format, nthreads int) (*Executor, error) {
	s, ok := f.(core.Splitter)
	if !ok {
		return nil, fmt.Errorf("parallel: format %s does not support row partitioning", f.Name())
	}
	if nthreads <= 0 {
		return nil, fmt.Errorf("parallel: invalid thread count %d", nthreads)
	}
	e := &Executor{chunks: s.Split(nthreads)}
	e.pool = pool{partition: "row", rows: f.Rows(), cols: f.Cols(),
		gaps: rowGaps(e.chunks, f.Rows()), fused: fusable(e.chunks),
		layout: rowLayout(e.chunks),
		body:   func(i int, j job) error { return runChunk(e.chunks[i], j) },
		phases: e.once}
	e.start()
	return e, nil
}

// rowLayout is the per-worker stats layout of a scheme with one worker
// per row chunk: each chunk's row range and non-zeros.
func rowLayout[C interface {
	RowRange() (int, int)
	NNZ() int
}](chunks []C) []obs.ChunkStat {
	layout := make([]obs.ChunkStat, len(chunks))
	for i, ch := range chunks {
		lo, hi := ch.RowRange()
		layout[i] = obs.ChunkStat{Worker: i, Lo: lo, Hi: hi, NNZ: ch.NNZ()}
	}
	return layout
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
