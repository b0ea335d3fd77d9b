// Package parallel is the multithreaded SpMV runtime: the Go analogue
// of the paper's pthread row-partitioned kernel driver (§II-C, §VI-A).
//
// An Executor owns one persistent worker goroutine per chunk — the
// analogue of a pinned thread — so that iterative workloads (the paper
// measures 128 consecutive SpMV operations) pay goroutine startup once,
// not per iteration. Row partitioning needs no reduction because chunks
// write disjoint y ranges; the column- and block-partitioned executors
// give each worker a private y and reduce, as §II-C prescribes.
//
// Every executor accepts an obs.Collector (SetCollector) that receives
// per-run telemetry: per-chunk busy time, non-zero counts and load
// imbalance. With no collector attached the instrumentation cost is one
// nil check per Run and per chunk dispatch — no clock reads, no
// allocation — so benchmarks with collection disabled measure the same
// kernels the spmvlint compile gate baselines.
package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strconv"
	"sync"
	"time"

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
	chunks []core.Chunk
	rows   int
	cols   int
	gaps   [][2]int // row ranges covered by no chunk (zeroed per run)
	batch  bool     // every chunk implements core.BatchChunk

	start []chan job
	errs  []error // per-worker error slot for the current run
	wg    sync.WaitGroup

	mu     sync.Mutex // serializes Run/RunBatch/Close; guards closed
	closed bool

	// Per-column scratch for the RunBatch fallback on formats without a
	// fused batch kernel; allocated on first use. scratchY is zeroed at
	// allocation and chunk-owned rows are overwritten every run, so gap
	// rows stay zero without per-run work.
	scratchY, scratchX []float64

	collector  obs.Collector
	stats      []obs.ChunkStat // reused telemetry buffer; nil ⇒ collection off
	traceNames []string        // per-worker runtime/trace region names
}

type job struct {
	y, x  []float64
	k     int                       // panel width; <= 1 ⇒ scalar SpMV
	stats []obs.ChunkStat           // nil ⇒ workers skip timing entirely
	ctx   context.Context           // non-nil ⇒ wrap the kernel in a trace region
	fn    func(worker, workers int) // non-nil ⇒ run fn instead of a chunk kernel (Each)
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
	e := &Executor{chunks: s.Split(nthreads), rows: f.Rows(), cols: f.Cols()}
	// Rows covered by no chunk hold no non-zeros; record them so Run
	// can zero them (SpMV overwrites y).
	next := 0
	for _, ch := range e.chunks {
		lo, hi := ch.RowRange()
		if lo > next {
			e.gaps = append(e.gaps, [2]int{next, lo})
		}
		next = hi
	}
	if next < e.rows {
		e.gaps = append(e.gaps, [2]int{next, e.rows})
	}
	e.batch = true
	for _, ch := range e.chunks {
		if _, ok := ch.(core.BatchChunk); !ok {
			e.batch = false
			break
		}
	}
	e.start = make([]chan job, len(e.chunks))
	e.errs = make([]error, len(e.chunks))
	for i := range e.chunks {
		e.start[i] = make(chan job)
		go workerLabeled("row", i, func() { e.worker(i) })
	}
	return e, nil
}

// workerLabeled runs fn as a worker goroutine body with pprof labels
// identifying the partition scheme and worker index, so CPU profiles of
// a multithreaded run attribute samples to individual workers.
func workerLabeled(partition string, i int, fn func()) {
	pprof.Do(context.Background(),
		pprof.Labels("spmv_partition", partition, "spmv_worker", strconv.Itoa(i)),
		func(context.Context) { fn() })
}

// traceNames precomputes the per-worker runtime/trace region names for
// a partition scheme ("spmv.<scheme>.chunk<i>"), so the enabled path
// never formats strings per dispatch.
func traceNames(partition string, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = "spmv." + partition + ".chunk" + strconv.Itoa(i)
	}
	return names
}

// traceTask opens a runtime/trace task covering one Run when tracing
// is active. Executors call it only on the collector-enabled path, so
// the disabled path keeps its single nil check; with tracing inactive
// it costs one atomic load and returns a nil context, which workers
// read as "no region". The returned end function is never nil.
func traceTask(name string) (context.Context, func()) {
	if !rtrace.IsEnabled() {
		return nil, func() {}
	}
	ctx, task := rtrace.NewTask(context.Background(), name)
	return ctx, task.End
}

// SetCollector attaches (or, with nil, detaches) a telemetry sink.
// It takes the run lock, so attaching mid-stream is safe; set it up
// right after construction alongside the executor's other
// configuration all the same.
func (e *Executor) SetCollector(c obs.Collector) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.collector = c
	if c == nil {
		e.stats = nil
		e.traceNames = nil
		return
	}
	e.stats = make([]obs.ChunkStat, len(e.chunks))
	for i, ch := range e.chunks {
		lo, hi := ch.RowRange()
		e.stats[i] = obs.ChunkStat{Worker: i, Lo: lo, Hi: hi, NNZ: ch.NNZ()}
	}
	e.traceNames = traceNames("row", len(e.chunks))
}

func (e *Executor) worker(i int) {
	ch := e.chunks[i]
	for j := range e.start[i] {
		if j.fn != nil {
			e.errs[i] = runFunc(j.fn, i, len(e.chunks))
		} else if j.stats == nil {
			e.errs[i] = runChunk(ch, j)
		} else {
			t0 := time.Now()
			if j.ctx != nil {
				rtrace.WithRegion(j.ctx, e.traceNames[i], func() {
					e.errs[i] = runChunk(ch, j)
				})
			} else {
				e.errs[i] = runChunk(ch, j)
			}
			j.stats[i].Busy += time.Since(t0)
		}
		e.wg.Done()
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

// runFunc executes one worker's share of an Each call with the same
// panic containment as runChunk.
func runFunc(fn func(worker, workers int), i, n int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = workerError(i, n, r)
		}
	}()
	fn(i, n)
	return nil
}

// workerError converts a panic recovered from an Each body into an
// error naming the worker it ran on.
func workerError(i, n int, r any) error {
	return fmt.Errorf("parallel: worker %d of %d: %w", i, n, core.PanicError(r))
}

// chunkError converts a recovered worker panic into an error naming
// the row range the worker owned. core.PanicError preserves the typed
// sentinel chain, so errors.Is(err, core.ErrCorrupt) holds for corrupt
// streams.
func chunkError(lo, hi int, r any) error {
	return fmt.Errorf("parallel: chunk rows [%d,%d): %w", lo, hi, core.PanicError(r))
}

// errClosed is the typed error every executor returns from Run and
// RunIters after Close; errors.Is(err, core.ErrUsage) holds. Before
// this the send on the closed start channel panicked.
func errClosed() error {
	return core.Usagef("parallel: Run on closed executor")
}

// errString renders an error for obs.RunStat.Err; empty for nil.
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// Threads returns the number of workers (may be less than requested
// for small matrices).
func (e *Executor) Threads() int { return len(e.chunks) }

// Run computes y = A*x using all workers and blocks until complete.
// It returns an error if the executor is closed, if the operand
// lengths do not cover the matrix dimensions, or if any worker's
// kernel panicked (the error names the offending chunk's row range and
// wraps the core sentinels). On error y is left partially written; the
// matrix itself is untouched, so the caller can Verify it and retry or
// fail over.
func (e *Executor) Run(y, x []float64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.run(nil, y, x)
}

// RunCtx is Run with a cancellation context: a context that is already
// done when the run would start returns ctx.Err() without dispatching.
// A kernel already in flight is never preempted — SpMV over one chunk
// is short and preemption points would cost the hot loop — so the
// context bounds queueing delay, not kernel time.
func (e *Executor) RunCtx(ctx context.Context, y, x []float64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.run(ctx, y, x)
}

// run is Run without the lock; ctx may be nil.
func (e *Executor) run(ctx context.Context, y, x []float64) error {
	if e.closed {
		return errClosed()
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	if err := core.CheckVectorDims(e.rows, e.cols, y, x); err != nil {
		return fmt.Errorf("parallel: %w", err)
	}
	for _, g := range e.gaps {
		for i := g[0]; i < g[1]; i++ {
			y[i] = 0
		}
	}
	for i := range e.errs {
		e.errs[i] = nil
	}
	var t0 time.Time
	var tctx context.Context
	if e.collector != nil {
		for i := range e.stats {
			e.stats[i].Busy = 0
		}
		var end func()
		tctx, end = traceTask("spmv.row.run")
		defer end()
		t0 = time.Now()
	}
	e.dispatch(job{y: y, x: x, stats: e.stats, ctx: tctx})
	err := errors.Join(e.errs...)
	if e.collector != nil {
		// Workers are quiescent after Wait, so handing the collector a
		// copy of the stats buffer is race-free.
		e.collector.RunDone(&obs.RunStat{
			Partition: "row",
			Vectors:   1,
			Wall:      time.Since(t0),
			Err:       errString(err),
			Chunks:    append([]obs.ChunkStat(nil), e.stats...),
		})
	}
	return err
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
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return errClosed()
	}
	for i := range e.errs {
		e.errs[i] = nil
	}
	e.dispatch(job{fn: fn})
	return errors.Join(e.errs...)
}

// dispatch hands one job to every worker and blocks until all finish.
func (e *Executor) dispatch(j job) {
	e.wg.Add(len(e.chunks))
	for i := range e.start {
		e.start[i] <- j
	}
	e.wg.Wait()
}

// RunBatch computes Y = A*X over row-major n×k panels (X[j*k+c] is
// element j of right-hand side c) using all workers. When every chunk
// has a fused batch kernel the matrix stream is traversed — and, for
// the compressed formats, decoded — once for all k vectors; otherwise
// the executor gathers each panel column into scratch vectors and runs
// the scalar kernels k times (correct, but without the amortization).
// Error semantics match Run; on a collector the whole batch is one
// RunStat with Vectors = k.
func (e *Executor) RunBatch(y, x []float64, k int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.runBatch(nil, y, x, k)
}

// RunBatchCtx is RunBatch with a cancellation context, checked before
// dispatch and between fallback columns (see RunCtx for the preemption
// contract).
func (e *Executor) RunBatchCtx(ctx context.Context, y, x []float64, k int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.runBatch(ctx, y, x, k)
}

// runBatch is RunBatch without the lock; ctx may be nil.
func (e *Executor) runBatch(ctx context.Context, y, x []float64, k int) error {
	if e.closed {
		return errClosed()
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	if err := core.CheckPanelDims(e.rows, e.cols, y, x, k); err != nil {
		return fmt.Errorf("parallel: %w", err)
	}
	if k == 1 {
		return e.run(ctx, y[:e.rows], x[:e.cols])
	}
	for i := range e.errs {
		e.errs[i] = nil
	}
	var t0 time.Time
	var tctx context.Context
	if e.collector != nil {
		for i := range e.stats {
			e.stats[i].Busy = 0
		}
		var end func()
		tctx, end = traceTask("spmv.row.batch")
		defer end()
		t0 = time.Now()
	}
	var err error
	if e.batch {
		for _, g := range e.gaps {
			yr := y[g[0]*k : g[1]*k]
			for i := range yr {
				yr[i] = 0
			}
		}
		e.dispatch(job{y: y, x: x, k: k, stats: e.stats, ctx: tctx})
		err = errors.Join(e.errs...)
	} else {
		// The per-column fallback must not return out of the loop: an
		// early return on a failed column skipped the collector's
		// RunDone, so a failing batch left no RunStat behind — the
		// telemetry stream under-counted exactly the runs worth
		// investigating. Break instead and report below with Err set.
		if e.scratchY == nil {
			e.scratchY = make([]float64, e.rows)
			e.scratchX = make([]float64, e.cols)
		}
		for c := 0; c < k; c++ {
			if ctx != nil {
				if cerr := ctx.Err(); cerr != nil {
					err = fmt.Errorf("batch column %d: %w", c, cerr)
					break
				}
			}
			for j := range e.scratchX {
				e.scratchX[j] = x[j*k+c]
			}
			e.dispatch(job{y: e.scratchY, x: e.scratchX, stats: e.stats, ctx: tctx})
			if cerr := errors.Join(e.errs...); cerr != nil {
				err = fmt.Errorf("batch column %d: %w", c, cerr)
				break
			}
			for i, v := range e.scratchY {
				y[i*k+c] = v
			}
		}
	}
	if e.collector != nil {
		e.collector.RunDone(&obs.RunStat{
			Partition: "row",
			Vectors:   k,
			Wall:      time.Since(t0),
			Err:       errString(err),
			Chunks:    append([]obs.ChunkStat(nil), e.stats...),
		})
	}
	return err
}

// RunBatchIters performs iters consecutive batched multiplications,
// reusing the same panels. It stops at the first failing iteration.
func (e *Executor) RunBatchIters(iters int, y, x []float64, k int) error {
	for n := 0; n < iters; n++ {
		if err := e.RunBatch(y, x, k); err != nil {
			return fmt.Errorf("iteration %d: %w", n, err)
		}
	}
	return nil
}

// RunIters performs iters consecutive SpMV operations (the paper's
// measurement loop), reusing the same x and y. It stops at the first
// failing iteration.
func (e *Executor) RunIters(iters int, y, x []float64) error {
	for k := 0; k < iters; k++ {
		if err := e.Run(y, x); err != nil {
			return fmt.Errorf("iteration %d: %w", k, err)
		}
	}
	return nil
}

// Close stops the workers. Run and RunIters return an error wrapping
// core.ErrUsage afterwards. Close is idempotent and safe to call
// concurrently with itself and with Run/RunBatch: it waits for an
// in-flight run to finish, then closes the worker channels exactly
// once.
func (e *Executor) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.closed = true
	for i := range e.start {
		close(e.start[i])
	}
}
