package parallel

import (
	"errors"
	"fmt"
	"sync/atomic"

	"spmv/internal/core"
	"spmv/internal/obs"
	"spmv/internal/partition"
)

// stealFactor is the over-decomposition ratio of the work-stealing
// executor: the matrix is split into stealFactor×threads row chunks so
// that a worker slowed by a cache-hostile or long chunk sheds its
// remaining queue to idle neighbours at chunk granularity.
const stealFactor = 4

// StealExecutor is the row-partitioned executor with dynamic load
// balancing: chunks are dealt to per-worker queues up front (contiguous
// blocks, preserving the static schedule's locality when load is even),
// each worker drains its own queue through an atomic cursor, and a
// worker that runs dry claims chunks from its neighbours' queues by
// CAS-advancing their cursors. Chunks write disjoint y row ranges, so a
// stolen chunk needs no extra synchronization — the cursor is the only
// shared state.
//
// Steal counts are reported per worker through obs.ChunkStat.Steals
// and summed in obs.RunStat.Steals. On a balanced matrix the queues
// drain without stealing and the only cost over Executor is one atomic
// increment per chunk; on skewed or noisy-neighbour runs the tail
// chunks migrate to idle workers instead of stretching the barrier.
type StealExecutor struct {
	pool
	chunks  []core.Chunk
	queues  [][]int       // static chunk-index blocks, one per worker
	cursors []stealCursor // per-queue claim cursor, reset each run
	errs    []error       // per-chunk error slot for the current run
}

// stealCursor is a queue cursor padded to a cache line: cursors are
// the executor's only contended words, and packing them would put every
// CAS on every worker's line.
type stealCursor struct {
	n atomic.Int64
	_ [56]byte
}

// NewStealExecutor builds a work-stealing row executor with nthreads
// workers over stealFactor×nthreads chunks. Formats must support row
// partitioning, as for NewExecutor. Chunk stats are per worker; Lo/Hi
// are zero because a stealing worker's rows are not contiguous — NNZ
// and Steals are filled per run with what the worker actually executed.
func NewStealExecutor(f core.Format, nthreads int) (*StealExecutor, error) {
	s, ok := f.(core.Splitter)
	if !ok {
		return nil, fmt.Errorf("parallel: format %s does not support row partitioning", f.Name())
	}
	if nthreads <= 0 {
		return nil, fmt.Errorf("parallel: invalid thread count %d", nthreads)
	}
	e := &StealExecutor{chunks: s.Split(stealFactor * nthreads)}
	nworkers := max(min(nthreads, len(e.chunks)), 1)
	qb := partition.Even(len(e.chunks), nworkers)
	e.queues = make([][]int, nworkers)
	for w := 0; w < nworkers; w++ {
		q := make([]int, 0, qb[w+1]-qb[w])
		for ci := qb[w]; ci < qb[w+1]; ci++ {
			q = append(q, ci)
		}
		e.queues[w] = q
	}
	e.cursors = make([]stealCursor, nworkers)
	e.errs = make([]error, len(e.chunks))
	layout := make([]obs.ChunkStat, nworkers)
	for w := range layout {
		layout[w] = obs.ChunkStat{Worker: w}
	}
	e.pool = pool{partition: "steal", rows: f.Rows(), cols: f.Cols(),
		gaps: rowGaps(e.chunks, f.Rows()), fused: fusable(e.chunks), layout: layout,
		body:   func(w int, j job) error { e.drain(w, j); return nil },
		phases: e.runPhases}
	e.start()
	return e, nil
}

// runPhases resets the claim cursors and per-chunk error slots, hands the
// job to every worker, and returns once the queues are drained.
// Workers are quiescent between dispatches, so the resets need no
// synchronization beyond the channel sends that publish them.
func (e *StealExecutor) runPhases(j job) error {
	for w := range e.cursors {
		e.cursors[w].n.Store(0)
	}
	clear(e.errs)
	e.dispatch(&j)
	return errors.Join(e.errs...)
}

// drain executes worker w's share of one run: first its own queue, then
// whatever remains in the other workers' queues. Each chunk index is
// claimed by exactly one atomic ticket (the owner's fetch-add or a
// thief's CAS), so every chunk runs exactly once and the per-chunk
// error slots are written race-free.
func (e *StealExecutor) drain(w int, j job) {
	own := e.queues[w]
	for {
		idx := e.cursors[w].n.Add(1) - 1
		if idx >= int64(len(own)) {
			break
		}
		ci := own[idx]
		e.errs[ci] = runChunk(e.chunks[ci], j)
		if j.stats != nil {
			j.stats[w].NNZ += e.chunks[ci].NNZ()
		}
	}
	for d := 1; d < len(e.queues); d++ {
		v := w + d
		if v >= len(e.queues) {
			v -= len(e.queues)
		}
		q := e.queues[v]
		for {
			cur := e.cursors[v].n.Load()
			if cur >= int64(len(q)) {
				break
			}
			if !e.cursors[v].n.CompareAndSwap(cur, cur+1) {
				continue
			}
			ci := q[cur]
			e.errs[ci] = runChunk(e.chunks[ci], j)
			if j.stats != nil {
				j.stats[w].NNZ += e.chunks[ci].NNZ()
				j.stats[w].Steals++
			}
		}
	}
}
