package parallel

import (
	"fmt"

	"spmv/internal/core"
)

// NNZExecutor runs non-zero-partitioned multithreaded SpMV: chunk
// boundaries are placed every nnz/parts stored elements, mid-row where
// necessary, so static load imbalance stays within one element per
// worker even when a single row holds most of the matrix — the
// row-length-skew pathology that row-granular partitioning cannot fix
// (a row is atomic to core.Splitter, so its owner inherits its whole
// weight).
//
// Rows wholly inside one chunk are written to y directly, as with row
// partitioning. The at-most-two boundary rows a chunk shares with its
// neighbours are privatized: each worker stores its piece of a shared
// row into its own partial slots (no atomics, no false sharing on y),
// and each run finishes with an O(parts) serial fix-up pass summing
// the pieces into y. Lifecycle, locking, panic containment and
// telemetry are the shared pool's. RunBatch has no fused path: the
// fix-up needs a reduction per vector, so a batch runs the scalar
// pipeline once per panel column — use the row-partitioned executor
// for batched work on balanced matrices.
type NNZExecutor struct {
	pool
	chunks []core.NNZChunk
	parts  []float64 // 2 partial slots per chunk, indexed 2*worker
	fixups []fixup   // one per split row, in row order
}

// fixup is the reduction recipe for one split row: y[row] is the sum
// of the listed slots of the executor's partial buffer.
type fixup struct {
	row   int
	slots []int
}

// NewNNZExecutor partitions f into at most nthreads nnz-balanced
// chunks with mid-row boundaries and starts one worker per chunk. It
// returns an error if the format does not support non-zero splitting
// (core.NNZSplitter; CSR implements it).
func NewNNZExecutor(f core.Format, nthreads int) (*NNZExecutor, error) {
	s, ok := f.(core.NNZSplitter)
	if !ok {
		return nil, fmt.Errorf("parallel: format %s does not support nnz partitioning", f.Name())
	}
	if nthreads <= 0 {
		return nil, fmt.Errorf("parallel: invalid thread count %d", nthreads)
	}
	e := &NNZExecutor{chunks: s.SplitNNZ(nthreads)}
	e.parts = make([]float64, 2*len(e.chunks))

	// Collect the split rows and their contributing partial slots. A
	// chunk strictly inside one row reports head == tail and uses only
	// its head slot; otherwise head and tail are distinct rows.
	slotsByRow := map[int][]int{}
	for i, ch := range e.chunks {
		head, tail := ch.Boundary()
		if head >= 0 {
			slotsByRow[head] = append(slotsByRow[head], 2*i)
		}
		if tail >= 0 && tail != head {
			slotsByRow[tail] = append(slotsByRow[tail], 2*i+1)
		}
	}

	// Deterministic fix-up order: ascending row, slots in chunk order
	// (map iteration order must not leak into float summation order).
	for i, ch := range e.chunks {
		head, tail := ch.Boundary()
		for _, r := range [2]int{head, tail} {
			if slots, ok := slotsByRow[r]; ok && slots[0]/2 == i {
				e.fixups = append(e.fixups, fixup{row: r, slots: slots})
			}
		}
	}

	// Rows covered by no chunk hold no non-zeros; the pool zeroes them.
	e.pool = pool{partition: "nnz", rows: f.Rows(), cols: f.Cols(),
		gaps: rowGaps(e.chunks, f.Rows()), layout: rowLayout(e.chunks),
		body: func(i int, j job) error {
			return runNNZChunk(e.chunks[i], e.parts[2*i:2*i+2], j)
		},
		phases: e.runPhases}
	e.start()
	return e, nil
}

// runPhases is one dispatch followed by the fix-up pass: every split
// row is the sum of its privatized pieces. No chunk writes y for split
// rows, so this is a plain overwrite; slots are summed left to right in
// chunk order, keeping results deterministic for a fixed chunk count.
func (e *NNZExecutor) runPhases(j job) error {
	e.dispatch(&j)
	for i := range e.fixups {
		f := &e.fixups[i]
		sum := 0.0
		for _, s := range f.slots {
			sum += e.parts[s]
		}
		j.y[f.row] = sum
	}
	return e.joinErrs()
}

// runNNZChunk executes one chunk's partial kernel with panic
// containment (see runChunk).
func runNNZChunk(ch core.NNZChunk, partial []float64, j job) (err error) {
	lo, hi := ch.RowRange()
	defer func() {
		if r := recover(); r != nil {
			err = chunkError(lo, hi, r)
		}
	}()
	ch.SpMVPartial(j.y, j.x, partial)
	return nil
}
