package csrdu

import (
	"runtime"
	"sync"

	"spmv/internal/core"
)

// fromCOOParallel is the multi-worker encoder behind Options.Workers.
// The matrix is cut into row blocks, each encoded independently
// (CSR-DU units never span rows, so block streams concatenate
// losslessly after the marks are rebased), giving near-linear
// construction speedup on multicores. Each block's encoder is seeded
// with the previous block's last row, so the concatenated stream is
// byte-identical to the serial encoder's output.
func fromCOOParallel(c *core.COO, opts Options) (*Matrix, error) {
	c.Finalize()
	nworkers := opts.Workers
	if nworkers <= 0 {
		nworkers = runtime.GOMAXPROCS(0)
	}
	n := c.Len()
	if nworkers == 1 || n < 1<<14 {
		return fromCOOSerial(c, opts)
	}

	// Block boundaries at row edges, near-equal nnz.
	bounds := rowBlockBounds(c, nworkers)
	parts := make([]*Matrix, len(bounds)-1)
	var wg sync.WaitGroup
	for w := 0; w+1 < len(bounds); w++ {
		w := w
		prevRow := -1
		if bounds[w] > 0 {
			// The entry before the block start ends the previous
			// non-empty row, which anchors this block's first row jump.
			r, _, _ := c.At(bounds[w] - 1)
			prevRow = r
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[w] = encodeBlock(c, bounds[w], bounds[w+1], prevRow, opts)
		}()
	}
	wg.Wait()
	// Concatenate: streams are self-delimiting; marks need offsets.
	out := &Matrix{rows: c.Rows(), cols: c.Cols(), opts: opts.withDefaults()}
	for _, p := range parts {
		ctlOff := len(out.Ctl)
		valOff := len(out.Values)
		out.Ctl = append(out.Ctl, p.Ctl...)
		out.Values = append(out.Values, p.Values...)
		for _, mk := range p.marks {
			out.marks = append(out.marks, mark{row: mk.row, ctl: mk.ctl + ctlOff, val: mk.val + valOff})
		}
	}
	return out, nil
}

// rowBlockBounds returns entry indices of block starts, aligned to row
// boundaries.
func rowBlockBounds(c *core.COO, nworkers int) []int {
	n := c.Len()
	bounds := []int{0}
	for w := 1; w < nworkers; w++ {
		k := w * n / nworkers
		if k <= bounds[len(bounds)-1] {
			continue
		}
		// Advance to the next row boundary.
		row, _, _ := c.At(k)
		for k < n {
			r, _, _ := c.At(k)
			if r != row {
				break
			}
			k++
		}
		if k > bounds[len(bounds)-1] && k < n {
			bounds = append(bounds, k)
		}
	}
	return append(bounds, n)
}
