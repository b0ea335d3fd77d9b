package parallel

import (
	"fmt"

	"spmv/internal/core"
	"spmv/internal/obs"
)

// SymExecutor parallelizes scatter-kernel formats — built for the
// symmetric CSR of internal/sym, whose kernel applies each stored
// element twice and so writes all over y — with private-vector
// accumulation and a tree reduction:
//
//  1. multiply phase: each worker applies its chunk into a private
//     full-length y (no shared writes, no atomics);
//  2. ceil(log2(P)) reduction rounds: in round s the private vector of
//     worker i+s is added into worker i's (i ≡ 0 mod 2s). Every
//     round's pair-adds are row-sliced across ALL workers, so the
//     reduction itself runs at full parallelism; the final round
//     writes its sums straight into the caller's y.
//
// The tree is fixed by the worker count, so for a given P the
// floating-point summation order is deterministic — runs are bitwise
// reproducible regardless of scheduling, unlike reductions ordered by
// arrival. A flat reduction would sweep all P private vectors in one
// pass (P-1 adds deep); the tree does the same adds in log2(P) passes
// of depth 1, trading barriers for cache-sized streams.
//
// A failed multiply phase returns before any reduction, leaving y
// untouched. RunBatch has no fused path: the reduction needs a pass per
// vector, so a batch runs the scalar pipeline once per panel column. A
// worker's busy time covers its multiply phase plus its slices of
// every reduction round.
type SymExecutor struct {
	pool
	chunks  []core.ScatterChunk
	private [][]float64
}

// NewSymExecutor partitions f into at most nthreads scatter chunks
// (core.ScatterSplitter; sym-csr implements it with stored-triangle row
// ranges) and starts one worker per chunk.
func NewSymExecutor(f core.Format, nthreads int) (*SymExecutor, error) {
	s, ok := f.(core.ScatterSplitter)
	if !ok {
		return nil, fmt.Errorf("parallel: format %s does not support scatter partitioning", f.Name())
	}
	if nthreads <= 0 {
		return nil, fmt.Errorf("parallel: invalid thread count %d", nthreads)
	}
	e := &SymExecutor{chunks: s.SplitScatter(nthreads)}
	e.private = privateVectors(len(e.chunks), f.Rows())
	e.pool = pool{partition: "sym", rows: f.Rows(), cols: f.Cols(),
		layout: scatterLayout(e.chunks),
		body: func(i int, j job) error {
			return e.runSymJob(e.chunks[i], e.private[i], j)
		},
		phases: e.runPhases}
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

// scatterLayout is the per-worker stats layout of the scatter chunks: each
// chunk's stored-triangle row range and non-zeros.
func scatterLayout(chunks []core.ScatterChunk) []obs.ChunkStat {
	layout := make([]obs.ChunkStat, len(chunks))
	for i, ch := range chunks {
		lo, hi := ch.RowRange()
		layout[i] = obs.ChunkStat{Worker: i, Lo: lo, Hi: hi, NNZ: ch.NNZ()}
	}
	return layout
}

// runPhases is the scatter phase into the private vectors (y cleared,
// stride 0), then — only if it succeeded — ceil(log2(P)) row-sliced
// tree-reduction rounds, the last of which writes y.
func (e *SymExecutor) runPhases(j job) error {
	y := j.y
	j.y = nil
	e.dispatch(&j)
	if err := e.joinErrs(); err != nil {
		return err
	}
	p := len(e.private)
	s := 1
	for ; 2*s < p; s *= 2 {
		j.stride = s
		e.dispatch(&j)
	}
	if p == 1 {
		s = 0 // single private vector: the final "round" is a copy
	}
	j.y, j.stride = y, s
	e.dispatch(&j)
	return e.joinErrs()
}

// runSymJob executes one phase of a tree-reduced run with panic
// containment: the multiply phase scatters into the worker's private
// vector; a reduction round adds this worker's row slice of every
// active pair of private vectors (the final round writes y instead).
func (e *SymExecutor) runSymJob(ch core.ScatterChunk, mine []float64, j job) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = symJobError(ch, j, r)
		}
	}()
	if j.y == nil && j.stride == 0 {
		for k := range mine {
			mine[k] = 0
		}
		ch.SpMVAdd(mine, j.x)
		return nil
	}
	lo, hi := j.reduce[0], j.reduce[1]
	s := j.stride
	if j.y != nil {
		if s == 0 {
			copy(j.y[lo:hi], e.private[0][lo:hi])
			return nil
		}
		dst := e.private[0]
		src := e.private[s]
		for k := lo; k < hi; k++ {
			j.y[k] = dst[k] + src[k]
		}
		return nil
	}
	for i := 0; i+s < len(e.private); i += 2 * s {
		dst := e.private[i]
		src := e.private[i+s]
		for k := lo; k < hi; k++ {
			dst[k] += src[k]
		}
	}
	return nil
}

// symJobError converts a recovered phase panic into an error naming
// the phase; kept out of runSymJob so the hot function stays free of
// formatting calls.
func symJobError(ch core.ScatterChunk, j job, r any) error {
	if j.y == nil && j.stride == 0 {
		lo, hi := ch.RowRange()
		return fmt.Errorf("parallel: sym chunk rows [%d,%d): %w", lo, hi, core.PanicError(r))
	}
	return fmt.Errorf("parallel: sym reduce stride %d rows [%d,%d): %w",
		j.stride, j.reduce[0], j.reduce[1], core.PanicError(r))
}
