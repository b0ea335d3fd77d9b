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

// pool is the lifecycle every executor shares: one persistent worker
// goroutine per slot, the run lock and closed flag, the closed, context
// and shape checks, the collector's stats, trace task and RunDone, the
// per-column RunBatch fallback, and Close. An executor embeds it and
// supplies only its construction, its worker body (body) and its phase
// sequence (phases); the exported Run/RunCtx/RunIters/RunBatch/
// RunBatchCtx/RunBatchIters/Threads/SetCollector/Close methods are the
// pool's, promoted.
type pool struct {
	partition  string          // RunStat.Partition, pprof label and trace-name stem
	rows, cols int             // operand shape checked before every run
	gaps       [][2]int        // row ranges no worker writes, zeroed per run
	fused      bool            // phases take k > 1 panels (every chunk has a batch kernel)
	layout     []obs.ChunkStat // per-worker stats as reset at the start of every run

	// body runs worker i's share of one dispatched job with panic
	// containment; phases runs one multiplication (every dispatch plus
	// any serial fix-up) and returns its error. Both are set by the
	// executor's constructor before start.
	body   func(i int, j job) error
	phases func(j job) error

	slots []slot
	wg    sync.WaitGroup

	mu     sync.Mutex // serializes runs, Each, SetCollector and Close; guards closed
	closed bool

	// Per-column scratch for the RunBatch fallback; allocated on first
	// use.
	scratchY, scratchX []float64

	collector obs.Collector
	stats     []obs.ChunkStat // reused telemetry buffer; nil ⇒ collection off
}

// slot is one worker's channel and its per-run results. A worker writes
// err and busy during a dispatch; the dispatcher reads them after the
// barrier.
type slot struct {
	start  chan job
	err    error
	busy   time.Duration
	reduce [2]int // reduce row slice of worker i of n: [i*rows/n, (i+1)*rows/n)
	region string // runtime/trace region name, "spmv.<partition>.chunk<i>"
}

// job is one dispatch: a multiply or reduce phase of a run, or an Each
// call. The meaning of y and stride per phase belongs to the scheme.
type job struct {
	y, x   []float64
	k      int                       // panel width; <= 1 ⇒ scalar SpMV
	stride int                       // sym reduction round stride
	reduce [2]int                    // this worker's reduce row slice (slot.reduce), set by dispatch
	stats  []obs.ChunkStat           // nil ⇒ workers skip timing entirely
	ctx    context.Context           // non-nil ⇒ wrap the body in a trace region
	fn     func(worker, workers int) // non-nil ⇒ run fn instead of the body (Each)
}

// start launches one worker per layout entry, each labeled for pprof
// with the partition scheme and its index.
func (p *pool) start() {
	n := len(p.layout)
	p.slots = make([]slot, n)
	for i := range p.slots {
		s := &p.slots[i]
		s.start = make(chan job)
		s.reduce = [2]int{i * p.rows / n, (i + 1) * p.rows / n}
		s.region = "spmv." + p.partition + ".chunk" + strconv.Itoa(i)
		go pprof.Do(context.Background(),
			pprof.Labels("spmv_partition", p.partition, "spmv_worker", strconv.Itoa(i)),
			func(context.Context) { p.worker(i, s) })
	}
}

func (p *pool) worker(i int, s *slot) {
	for j := range s.start {
		switch {
		case j.fn != nil:
			s.err = runFunc(j.fn, i, len(p.slots))
		case j.stats == nil:
			s.err = p.body(i, j)
		default:
			t0 := time.Now()
			if j.ctx != nil {
				rtrace.WithRegion(j.ctx, s.region, func() { s.err = p.body(i, j) })
			} else {
				s.err = p.body(i, j)
			}
			s.busy += time.Since(t0)
		}
		p.wg.Done()
	}
}

// dispatch hands j to every worker, each with its own reduce slice,
// and blocks until all finish.
func (p *pool) dispatch(j *job) {
	slots := p.slots
	p.wg.Add(len(slots))
	for i := range slots {
		j.reduce = slots[i].reduce
		slots[i].start <- *j
	}
	p.wg.Wait()
}

// joinErrs joins the workers' errors from the last dispatch in worker
// order; nil when every worker succeeded.
func (p *pool) joinErrs() error {
	var errs []error
	for i := range p.slots {
		if err := p.slots[i].err; err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Threads returns the number of workers (may be less than requested
// for small matrices).
func (p *pool) Threads() int { return len(p.slots) }

// SetCollector attaches (or, with nil, detaches) a telemetry sink.
// It takes the run lock, so attaching mid-stream is safe; set it up
// right after construction alongside the executor's other
// configuration all the same.
func (p *pool) SetCollector(c obs.Collector) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.collector = c
	p.stats = nil
	if c != nil {
		p.stats = make([]obs.ChunkStat, len(p.layout))
	}
}

// Run computes y = A*x using all workers and blocks until complete.
// It returns an error if the executor is closed, if the operand
// lengths do not cover the matrix dimensions, or if any worker's
// kernel panicked (the error names the offending chunk's range and
// wraps the core sentinels). On error y is left partially written; the
// matrix itself is untouched, so the caller can Verify it and retry or
// fail over.
func (p *pool) Run(y, x []float64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.run(nil, y, x)
}

// RunCtx is Run with a cancellation context: a context that is already
// done when the run would start returns ctx.Err() without dispatching.
// The context is checked once, before the first phase; a kernel or
// reduction phase already in flight is never preempted — SpMV over one
// chunk is short and preemption points would cost the hot loop — so
// the context bounds queueing delay, not kernel time.
func (p *pool) RunCtx(ctx context.Context, y, x []float64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.run(ctx, y, x)
}

// RunBatch computes Y = A*X over row-major n×k panels (X[j*k+c] is
// element j of right-hand side c) using all workers. When the scheme
// has a fused batch path (row, over units that all have a batch
// kernel) the matrix stream is traversed — and, for the
// compressed formats, decoded — once for all k vectors; otherwise the
// executor gathers each panel column into scratch vectors and runs the
// scalar phases k times (correct, but without the amortization).
// Error semantics match Run; on a collector the whole batch is one
// RunStat with Vectors = k.
func (p *pool) RunBatch(y, x []float64, k int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.runBatch(nil, y, x, k)
}

// RunBatchCtx is RunBatch with a cancellation context, checked before
// the first phase and between fallback columns (see RunCtx for the
// preemption contract).
func (p *pool) RunBatchCtx(ctx context.Context, y, x []float64, k int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.runBatch(ctx, y, x, k)
}

// RunIters performs iters consecutive SpMV operations (the paper's
// measurement loop), reusing the same x and y. It stops at the first
// failing iteration.
func (p *pool) RunIters(iters int, y, x []float64) error {
	for n := 0; n < iters; n++ {
		if err := p.Run(y, x); err != nil {
			return fmt.Errorf("iteration %d: %w", n, err)
		}
	}
	return nil
}

// RunBatchIters performs iters consecutive batched multiplications,
// reusing the same panels. It stops at the first failing iteration.
func (p *pool) RunBatchIters(iters int, y, x []float64, k int) error {
	for n := 0; n < iters; n++ {
		if err := p.RunBatch(y, x, k); err != nil {
			return fmt.Errorf("iteration %d: %w", n, err)
		}
	}
	return nil
}

// Close stops the workers. Runs return an error wrapping core.ErrUsage
// afterwards. Close is idempotent and safe to call concurrently with
// itself and with Run/RunBatch: it waits for an in-flight run to
// finish, then closes the worker channels exactly once.
func (p *pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	for i := range p.slots {
		close(p.slots[i].start)
	}
}

// ready is the check every entry point makes under the lock before
// dispatching: not closed, context (may be nil) not done.
func (p *pool) ready(ctx context.Context) error {
	if p.closed {
		return errClosed()
	}
	if ctx != nil {
		return ctx.Err()
	}
	return nil
}

// run is Run without the lock; ctx may be nil.
func (p *pool) run(ctx context.Context, y, x []float64) error {
	if err := p.ready(ctx); err != nil {
		return err
	}
	if err := core.CheckVectorDims(p.rows, p.cols, y, x); err != nil {
		return fmt.Errorf("parallel: %w", err)
	}
	return p.multiply(ctx, y, x, 1)
}

// runBatch is RunBatch without the lock; ctx may be nil.
func (p *pool) runBatch(ctx context.Context, y, x []float64, k int) error {
	if err := p.ready(ctx); err != nil {
		return err
	}
	if err := core.CheckPanelDims(p.rows, p.cols, y, x, k); err != nil {
		return fmt.Errorf("parallel: %w", err)
	}
	if k == 1 {
		y, x = y[:p.rows], x[:p.cols]
	}
	return p.multiply(ctx, y, x, k)
}

// multiply runs one checked multiplication of k vectors and, with a
// collector attached, reports it as exactly one RunStat — failed runs
// included, with Err set.
func (p *pool) multiply(ctx context.Context, y, x []float64, k int) error {
	var t0 time.Time
	var tctx context.Context
	if p.collector != nil {
		copy(p.stats, p.layout)
		for i := range p.slots {
			p.slots[i].busy = 0
		}
		var end func()
		tctx, end = traceTask(p.partition, k)
		defer end()
		t0 = time.Now()
	}
	j := job{y: y, x: x, k: k, stats: p.stats, ctx: tctx}
	var err error
	if k == 1 || p.fused {
		zeroRows(y, p.gaps, k)
		err = p.phases(j)
	} else {
		err = p.columns(ctx, j)
	}
	if p.collector != nil {
		p.report(k, time.Since(t0), err)
	}
	return err
}

// columns is the RunBatch fallback for schemes without a fused batch
// path: gather each panel column of j into scratch vectors, run the
// scalar phases, scatter the result column back. A non-nil ctx is
// checked before each column, so a canceled batch stops between
// columns; the first failing column ends the batch.
func (p *pool) columns(ctx context.Context, j job) error {
	if p.scratchY == nil {
		p.scratchY = make([]float64, p.rows)
		p.scratchX = make([]float64, p.cols)
	}
	y, x, k := j.y, j.x, j.k
	j.y, j.x, j.k = p.scratchY, p.scratchX, 1
	for c := 0; c < k; c++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("batch column %d: %w", c, err)
			}
		}
		for i := range p.scratchX {
			p.scratchX[i] = x[i*k+c]
		}
		zeroRows(p.scratchY, p.gaps, 1)
		if err := p.phases(j); err != nil {
			return fmt.Errorf("batch column %d: %w", c, err)
		}
		for i, v := range p.scratchY {
			y[i*k+c] = v
		}
	}
	return nil
}

// report hands the collector the finished run. Workers are quiescent
// after the last dispatch, so copying the stats buffer is race-free.
func (p *pool) report(k int, wall time.Duration, err error) {
	for i := range p.stats {
		p.stats[i].Busy = p.slots[i].busy
	}
	p.collector.RunDone(&obs.RunStat{
		Partition: p.partition,
		Vectors:   k,
		Wall:      wall,
		Err:       errString(err),
		Chunks:    append([]obs.ChunkStat(nil), p.stats...),
	})
}

// each runs fn on every worker under the run lock (Executor.Each).
func (p *pool) each(fn func(worker, workers int)) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return errClosed()
	}
	p.dispatch(&job{fn: fn})
	return p.joinErrs()
}

// zeroRows zeroes the rows of an n×k row-major panel that fall in gaps
// (SpMV overwrites y, and no worker writes a gap row).
func zeroRows(y []float64, gaps [][2]int, k int) {
	for _, g := range gaps {
		clear(y[g[0]*k : g[1]*k])
	}
}

// rowGaps returns the row ranges of [0, rows) that no chunk covers.
// Neighbouring chunks may share a boundary row (nnz partitioning), so
// ranges may overlap.
func rowGaps[C interface{ RowRange() (int, int) }](chunks []C, rows int) [][2]int {
	var gaps [][2]int
	next := 0
	for _, ch := range chunks {
		lo, hi := ch.RowRange()
		if lo > next {
			gaps = append(gaps, [2]int{next, lo})
		}
		next = max(next, hi)
	}
	if next < rows {
		gaps = append(gaps, [2]int{next, rows})
	}
	return gaps
}

// fusable reports whether every chunk has a fused batch kernel.
func fusable(chunks []core.Chunk) bool {
	for _, ch := range chunks {
		if _, ok := ch.(core.BatchChunk); !ok {
			return false
		}
	}
	return true
}

// traceTask opens a runtime/trace task covering one run
// ("spmv.<partition>.run", or ".batch" for k > 1) when tracing is
// active. Runs call it only on the collector-enabled path, so the
// disabled path keeps its single nil check; with tracing inactive it
// costs one atomic load and returns a nil context, which workers read
// as "no region". The returned end function is never nil.
func traceTask(partition string, k int) (context.Context, func()) {
	if !rtrace.IsEnabled() {
		return nil, func() {}
	}
	name := "spmv." + partition + ".run"
	if k > 1 {
		name = "spmv." + partition + ".batch"
	}
	ctx, task := rtrace.NewTask(context.Background(), name)
	return ctx, task.End
}

// runFunc executes one worker's share of an Each call with panic
// containment, like the executors' bodies.
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

// errClosed is the typed error every executor returns from its runs
// after Close; errors.Is(err, core.ErrUsage) holds.
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
