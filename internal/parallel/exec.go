package parallel

import (
	"context"
	"runtime"

	"spmv/internal/core"
	"spmv/internal/obs"
)

// Runner is the interface all executors in this package satisfy: the
// scalar and batched run entry points plus lifecycle and telemetry.
// Code that only drives multiplications (benchmarks, solvers, the CLI)
// should accept a Runner so the partition scheme stays a construction-
// time choice.
type Runner interface {
	// Run computes y = A*x.
	Run(y, x []float64) error
	// RunCtx is Run with a cancellation context: a context that is done
	// before dispatch returns ctx.Err() without running. Contexts bound
	// queueing delay, not kernel time — an in-flight chunk kernel is
	// never preempted.
	RunCtx(ctx context.Context, y, x []float64) error
	// RunIters performs iters consecutive scalar multiplications.
	RunIters(iters int, y, x []float64) error
	// RunBatch computes Y = A*X over row-major n×k panels.
	RunBatch(y, x []float64, k int) error
	// RunBatchCtx is RunBatch with a cancellation context, checked
	// before dispatch and between fallback panel columns.
	RunBatchCtx(ctx context.Context, y, x []float64, k int) error
	// RunBatchIters performs iters consecutive batched multiplications.
	RunBatchIters(iters int, y, x []float64, k int) error
	// Threads returns the worker count.
	Threads() int
	// SetCollector attaches (or detaches, with nil) a telemetry sink.
	SetCollector(obs.Collector)
	// Close stops the workers; Run afterwards wraps core.ErrUsage.
	// Close is idempotent and safe concurrently with Run/RunBatch.
	Close()
}

var (
	_ Runner = (*Executor)(nil)
	_ Runner = (*ColExecutor)(nil)
	_ Runner = (*BlockExecutor)(nil)
	_ Runner = (*NNZExecutor)(nil)
	_ Runner = (*SymExecutor)(nil)
)

// ExecOptions configures New.
type ExecOptions struct {
	// Threads is the worker count; 0 or negative means GOMAXPROCS.
	Threads int
	// Collector, when non-nil, is attached with SetCollector.
	Collector obs.Collector
	// Partition selects the execution scheme: "" (the format's own
	// scheme, see New), "row", "col", or "nnz" (non-zero-granular
	// boundaries that split long rows; CSR only). Block partitioning
	// needs the original triplets, not a built format — use
	// NewBlockExecutor directly.
	Partition string
	// Steal selects the row scheme, which already balances load by
	// self-scheduling its units; combining it with another Partition is
	// a usage error.
	//
	// Deprecated: the work-stealing executor it selected is gone; leave
	// Steal unset.
	Steal bool
}

// New builds an executor for f according to opts. It is the options
// counterpart of NewExecutor/NewColExecutor and the construction path
// the public spmv package exposes. With no Partition and no Steal it
// starts the executor f supports: the row executor for a
// core.Splitter, the tree-reducing SymExecutor for sym-csr's scatter
// kernel, and the column executor for any other core.ColSplitter
// (csc).
func New(f core.Format, opts ExecOptions) (Runner, error) {
	threads := opts.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	var (
		r   Runner
		err error
	)
	if opts.Steal && opts.Partition != "" && opts.Partition != "row" {
		return nil, core.Usagef("parallel: Steal applies to the row partition, not %q", opts.Partition)
	}
	_, rows := f.(core.Splitter)
	_, cols := f.(core.ColSplitter)
	colOnly := opts.Partition == "" && !rows && cols
	switch {
	case opts.Steal:
		r, err = NewExecutor(f, threads)
	case colOnly && f.Name() == "sym-csr":
		r, err = NewSymExecutor(f, threads)
	case colOnly:
		r, err = NewColExecutor(f, threads)
	case opts.Partition == "" || opts.Partition == "row":
		r, err = NewExecutor(f, threads)
	case opts.Partition == "col":
		r, err = NewColExecutor(f, threads)
	case opts.Partition == "nnz":
		r, err = NewNNZExecutor(f, threads)
	default:
		return nil, core.Usagef("parallel: unknown partition %q (valid: row, col, nnz)", opts.Partition)
	}
	if err != nil {
		return nil, err
	}
	if opts.Collector != nil {
		r.SetCollector(opts.Collector)
	}
	return r, nil
}
