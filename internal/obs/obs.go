// Package obs is the runtime observability layer of the multithreaded
// SpMV runtime: per-chunk wall time, per-run load imbalance, and the
// bytes-moved accounting that turns "seconds per SpMV" into effective
// memory bandwidth.
//
// The paper's central claim (§II, §VI) is that SpMV is bandwidth-bound
// and compression wins by shrinking the stream; end-to-end seconds can
// only support that claim indirectly. This package makes it directly
// measurable: each parallel executor reports what every worker did on
// every Run through a Collector hook, and the bandwidth helpers convert
// a timing plus a Format's working set into effective GB/s per
// format/thread-count.
//
// Instrumentation is nil-check cheap: an executor with no Collector
// attached pays one nil check per Run and one per chunk dispatch —
// no timestamps, no allocation — so the hot kernels stay exactly as
// the spmvlint BCE/escape gate baselines them.
package obs

import (
	"math"
	"time"

	"spmv/internal/core"
	"spmv/internal/partition"
)

// ChunkStat is one worker's share of one Run: the slice of the matrix
// it owned and how long its kernel (and, for the reducing executor,
// its reduction phase) kept it busy.
type ChunkStat struct {
	// Worker is the worker index within the executor, [0, Threads).
	Worker int `json:"worker"`
	// Lo and Hi are the half-open row range the worker owned under the
	// nnz and sym executors (sym: of the stored triangle). Zero under
	// the self-scheduled row executor, whose workers' rows are not
	// contiguous.
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// NNZ is the worker's non-zero count — its static load-balance
	// weight (§II-C assigns approximately equal non-zeros per thread).
	NNZ int `json:"nnz"`
	// Busy is the time the worker spent executing its jobs during the
	// Run: the kernel for row partitioning, kernel plus reduction for
	// the sym executor.
	Busy time.Duration `json:"busy_ns"`
	// Units is the number of self-scheduled row units the worker ran;
	// NNZ is then their non-zeros. Zero outside the row executor.
	Units int `json:"units,omitempty"`
}

// RunStat is the telemetry of one Executor.Run or RunBatch call.
type RunStat struct {
	// Partition names the execution scheme: "row", "nnz" or "sym".
	Partition string `json:"partition"`
	// Vectors is the number of right-hand-side vectors the run computed:
	// 1 for Run, the panel width k for RunBatch. Bandwidth accounting
	// must divide by it — a batched run moves the matrix stream once for
	// Vectors results.
	Vectors int `json:"vectors"`
	// Wall is the caller-observed duration of the whole Run, including
	// dispatch and barriers.
	Wall time.Duration `json:"wall_ns"`
	// Err records the run's error, if any, so sinks that archive
	// RunStats retain failed runs distinguishably. Empty on success.
	Err string `json:"err,omitempty"`
	// Chunks has one entry per worker, indexed by worker.
	Chunks []ChunkStat `json:"chunks"`
}

// Threads returns the worker count of the run.
func (s *RunStat) Threads() int { return len(s.Chunks) }

// Busy returns the summed busy time across workers. Wall*Threads -
// Busy is time lost to dispatch, barriers and imbalance.
func (s *RunStat) Busy() time.Duration {
	var total time.Duration
	for i := range s.Chunks {
		total += s.Chunks[i].Busy
	}
	return total
}

// TimeImbalance is the measured load imbalance of the run:
// max(worker busy) / mean(worker busy), computed with
// partition.Imbalance over the per-worker busy times. 1.0 means all
// workers finished together; the parallel region's wall time is bounded
// below by mean*imbalance.
func (s *RunStat) TimeImbalance() float64 {
	return s.imbalance(func(c *ChunkStat) int64 { return int64(c.Busy) })
}

// NNZImbalance is the static load imbalance the partitioner accepted:
// max(worker nnz) / mean(worker nnz). The nnz-balanced splitters keep
// this near 1; a gap between NNZImbalance and TimeImbalance means
// non-zeros are not costing uniformly (cache effects, decode-width
// skew).
func (s *RunStat) NNZImbalance() float64 {
	return s.imbalance(func(c *ChunkStat) int64 { return int64(c.NNZ) })
}

// imbalance evaluates partition.Imbalance with one part per worker and
// the given per-worker weight.
func (s *RunStat) imbalance(weight func(*ChunkStat) int64) float64 {
	n := len(s.Chunks)
	if n == 0 {
		return 1
	}
	prefix := make([]int64, n+1)
	for i := range s.Chunks {
		prefix[i+1] = prefix[i] + weight(&s.Chunks[i])
	}
	return partition.Imbalance(prefix, partition.Even(n, n))
}

// Collector receives executor telemetry. Attach one to an executor
// with SetCollector; the executor invokes RunDone once per completed
// Run, from the goroutine that called Run, after all workers have
// finished (so reading the RunStat is race-free). The RunStat and its
// Chunks slice are owned by the callee and remain valid after RunDone
// returns.
//
// Implementations that are shared across executors or inspected
// concurrently (expvar, a debug endpoint) must synchronize internally;
// Recorder does.
type Collector interface {
	RunDone(s *RunStat)
}

// Tee fans each RunStat out to every non-nil collector. It returns nil
// when no collectors remain (so callers can pass the result straight to
// SetCollector and keep the zero-cost disabled path), and the sole
// collector unwrapped when only one remains.
func Tee(cs ...Collector) Collector {
	var keep []Collector
	for _, c := range cs {
		if c != nil {
			keep = append(keep, c)
		}
	}
	switch len(keep) {
	case 0:
		return nil
	case 1:
		return keep[0]
	}
	return tee(keep)
}

type tee []Collector

func (t tee) RunDone(s *RunStat) {
	for _, c := range t {
		c.RunDone(s)
	}
}

// BytesPerSpMV estimates the memory traffic of one y = A*x with a cold
// cache: the matrix's encoded bytes are streamed once, x is read and y
// written once. This is the paper's working-set model (§II-B) applied
// per iteration — the quantity compression shrinks — and the numerator
// of the effective-bandwidth metric.
func BytesPerSpMV(f core.Format) int64 {
	return core.WorkingSetOf(f)
}

// BytesPerSpMM estimates the memory traffic of one batched Y = A*X
// over k right-hand sides with a cold cache: the matrix stream is read
// once — that is the point of batching — while the panels contribute k
// vectors' worth of reads and writes.
func BytesPerSpMM(f core.Format, k int) int64 {
	if k < 1 {
		k = 1
	}
	return f.SizeBytes() + int64(k)*core.VectorBytes(f.Rows(), f.Cols(), core.ValSize)
}

// BytesPerVector is the per-result-vector traffic of one batched
// multiplication: BytesPerSpMM(f, k)/k. At k=1 it equals BytesPerSpMV;
// as k grows it falls toward the irreducible vector traffic, which is
// the honest denominator for GB/s-per-vector comparisons across k.
func BytesPerVector(f core.Format, k int) float64 {
	if k < 1 {
		k = 1
	}
	return float64(BytesPerSpMM(f, k)) / float64(k)
}

// GBps converts a per-iteration byte estimate and a seconds-per-
// iteration timing into effective bandwidth in GB/s (10^9 bytes per
// second). It returns 0 for non-positive, NaN, or infinite timings,
// and for timings so small the division overflows: callers embed the
// result in JSON metric reports, whose encoder rejects non-finite
// floats outright.
func GBps(bytesPerIter int64, secsPerIter float64) float64 {
	if secsPerIter <= 0 || math.IsNaN(secsPerIter) || math.IsInf(secsPerIter, 0) {
		return 0
	}
	g := float64(bytesPerIter) / secsPerIter / 1e9
	if math.IsInf(g, 0) || math.IsNaN(g) {
		return 0
	}
	return g
}
