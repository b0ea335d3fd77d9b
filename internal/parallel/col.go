package parallel

import (
	"fmt"

	"spmv/internal/core"
	"spmv/internal/obs"
)

// ColExecutor runs column-partitioned multithreaded SpMV (§II-C).
// Each worker owns a column range and a private y vector; after the
// multiply phase the private vectors are reduced into y, also in
// parallel (each worker reduces a row range across all private
// vectors). This is the paper's "each thread uses its own y array and
// performs a reducing addition at the end".
//
// A run is two phases: the multiply (a job with y == nil), then, unless
// a worker failed, the reduction, which leaves y untouched on a failed
// multiply. RunBatch has no fused path: column partitioning reduces
// into a shared y, so a batch runs the scalar pipeline once per panel
// column — use the row-partitioned executor for batched work. A
// worker's reported busy time covers both its multiply and reduction
// phases; its Lo/Hi span is its column range.
type ColExecutor struct {
	pool
	chunks  []core.ColChunk
	private [][]float64
}

// NewColExecutor partitions f into at most nthreads column chunks.
func NewColExecutor(f core.Format, nthreads int) (*ColExecutor, error) {
	s, ok := f.(core.ColSplitter)
	if !ok {
		return nil, fmt.Errorf("parallel: format %s does not support column partitioning", f.Name())
	}
	if nthreads <= 0 {
		return nil, fmt.Errorf("parallel: invalid thread count %d", nthreads)
	}
	e := &ColExecutor{chunks: s.SplitCols(nthreads)}
	e.private = privateVectors(len(e.chunks), f.Rows())
	e.pool = pool{partition: "col", rows: f.Rows(), cols: f.Cols(),
		layout: colLayout(e.chunks),
		body: func(i int, j job) error {
			return e.runColJob(e.chunks[i], e.private[i], j)
		},
		phases: e.twoPhase}
	e.start()
	return e, nil
}

// privateVectors allocates one private full-length y per worker.
func privateVectors(n, rows int) [][]float64 {
	private := make([][]float64, n)
	for i := range private {
		private[i] = make([]float64, rows)
	}
	return private
}

// colLayout is the per-worker stats layout of the column-chunked
// schemes (col, sym): each chunk's column range and non-zeros.
func colLayout(chunks []core.ColChunk) []obs.ChunkStat {
	layout := make([]obs.ChunkStat, len(chunks))
	for i, ch := range chunks {
		lo, hi := ch.ColRange()
		layout[i] = obs.ChunkStat{Worker: i, Lo: lo, Hi: hi, NNZ: ch.NNZ()}
	}
	return layout
}

// runColJob executes one phase of a column-partitioned run with panic
// containment. Multiply-phase errors are tagged with the chunk's
// column range, reduce-phase errors with the reduced row range.
func (e *ColExecutor) runColJob(ch core.ColChunk, mine []float64, j job) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = colJobError(ch, j, r)
		}
	}()
	if j.y == nil {
		// Phase 1: multiply into the private vector.
		for k := range mine {
			mine[k] = 0
		}
		ch.SpMVAdd(mine, j.x)
	} else {
		// Phase 2: reduce a row range across all private vectors.
		lo, hi := j.reduce[0], j.reduce[1]
		for k := lo; k < hi; k++ {
			sum := 0.0
			for _, p := range e.private {
				sum += p[k]
			}
			j.y[k] = sum
		}
	}
	return nil
}

// colJobError converts a recovered column-worker panic into an error:
// multiply-phase errors name the chunk's column range, reduce-phase
// errors the reduced row range. Kept out of runColJob so the hot
// function stays free of formatting calls.
func colJobError(ch core.ColChunk, j job, r any) error {
	if j.y == nil {
		lo, hi := ch.ColRange()
		return fmt.Errorf("parallel: chunk cols [%d,%d): %w", lo, hi, core.PanicError(r))
	}
	return fmt.Errorf("parallel: reduce rows [%d,%d): %w", j.reduce[0], j.reduce[1], core.PanicError(r))
}
