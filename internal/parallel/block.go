package parallel

import (
	"fmt"

	"spmv/internal/core"
	"spmv/internal/csr"
	"spmv/internal/obs"
	"spmv/internal/partition"
)

// BlockExecutor runs block-partitioned multithreaded SpMV (§II-C):
// the matrix is cut into a gridR×gridC grid of two-dimensional blocks,
// one worker per block. Workers in the same block row write the same y
// rows, so each keeps a private partial vector for its row range and a
// per-block-row reduction combines them. Block partitioning bounds both
// the x range (like column partitioning) and the y range (like row
// partitioning) each worker touches — the property the paper notes
// matters for processors with small local stores.
//
// A run is two phases, as for ColExecutor: the multiply (a job with
// y == nil), then, unless a worker failed, the per-block-row reduction.
// RunBatch runs the scalar pipeline once per panel column. A worker's
// Lo/Hi span is its grid block's row range; workers in column 0
// additionally accumulate their block row's reduction time.
type BlockExecutor struct {
	pool
	gridR, gridC int
	rowB, colB   []int         // grid boundaries
	blocks       []*csr.Matrix // gridR*gridC, row-major
	partial      [][]float64   // one per block
}

// NewBlockExecutor cuts the matrix into a gridR×gridC block grid with
// nnz-balanced row and column boundaries and builds a CSR submatrix
// per block.
func NewBlockExecutor(c *core.COO, gridR, gridC int) (*BlockExecutor, error) {
	if gridR <= 0 || gridC <= 0 {
		return nil, fmt.Errorf("parallel: invalid block grid %dx%d", gridR, gridC)
	}
	c.Finalize()
	full, err := csr.FromCOO(c)
	if err != nil {
		return nil, err
	}
	e := &BlockExecutor{gridR: gridR, gridC: gridC}
	e.rowB = partition.SplitRowsByNNZ(full.RowPtr, gridR)
	colCounts := make([]int, c.Cols())
	for k := 0; k < c.Len(); k++ {
		_, j, _ := c.At(k)
		colCounts[j]++
	}
	e.colB = partition.SplitByCounts(colCounts, gridC)

	e.blocks = make([]*csr.Matrix, gridR*gridC)
	e.partial = make([][]float64, gridR*gridC)
	for ri := 0; ri < gridR; ri++ {
		for ci := 0; ci < gridC; ci++ {
			sub := c.Slice(e.rowB[ri], e.rowB[ri+1], e.colB[ci], e.colB[ci+1])
			b, err := csr.FromCOO(sub)
			if err != nil {
				return nil, err
			}
			idx := ri*gridC + ci
			e.blocks[idx] = b
			e.partial[idx] = make([]float64, max(e.rowB[ri+1]-e.rowB[ri], 1))
		}
	}
	layout := make([]obs.ChunkStat, len(e.blocks))
	for i, b := range e.blocks {
		ri := i / gridC
		layout[i] = obs.ChunkStat{Worker: i, Lo: e.rowB[ri], Hi: e.rowB[ri+1], NNZ: b.NNZ()}
	}
	e.pool = pool{partition: "block", rows: e.rowB[gridR], cols: e.colB[gridC],
		layout: layout, body: e.runBlockJob, phases: e.twoPhase}
	e.start()
	return e, nil
}

// runBlockJob executes one phase for one grid block with panic
// containment; errors name the block's row range.
func (e *BlockExecutor) runBlockJob(idx int, j job) (err error) {
	ri := idx / e.gridC
	ci := idx % e.gridC
	defer func() {
		if r := recover(); r != nil {
			err = chunkError(e.rowB[ri], e.rowB[ri+1], r)
		}
	}()
	b := e.blocks[idx]
	mine := e.partial[idx]
	if j.y == nil {
		// Multiply phase: private partial over the block's columns.
		// Zero first: an empty block skips the kernel and must not
		// contribute stale values from the previous run.
		for k := range mine {
			mine[k] = 0
		}
		if e.rowB[ri+1] > e.rowB[ri] && e.colB[ci+1] > e.colB[ci] {
			b.SpMV(mine, j.x[e.colB[ci]:e.colB[ci+1]])
		}
	} else if ci == 0 {
		// Reduction phase: worker (ri, 0) sums its block row.
		lo, hi := e.rowB[ri], e.rowB[ri+1]
		for k := lo; k < hi; k++ {
			sum := 0.0
			for cj := 0; cj < e.gridC; cj++ {
				sum += e.partial[ri*e.gridC+cj][k-lo]
			}
			j.y[k] = sum
		}
	}
	return nil
}
