// Package mmio reads and writes the NIST Matrix Market exchange format,
// the distribution format of the University of Florida sparse matrix
// collection from which the paper draws its matrix set (§VI-B). The
// coordinate format with real, integer and pattern fields and general,
// symmetric and skew-symmetric symmetry is supported — enough to load
// any matrix in the paper's set.
package mmio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"spmv/internal/core"
)

// Header describes the matrix type line of a Matrix Market file.
type Header struct {
	Object   string // "matrix"
	Format   string // "coordinate" (dense "array" is not supported)
	Field    string // "real", "integer" or "pattern"
	Symmetry string // "general", "symmetric" or "skew-symmetric"
}

// Read parses a Matrix Market stream into a finalized COO matrix.
// Symmetric and skew-symmetric storage is expanded to general form
// (mirrored entries materialized), as the paper's CSR loader would.
func Read(r io.Reader) (*core.COO, error) {
	var c *core.COO
	_, err := ReadStream(r,
		func(s Size) { c = core.NewCOO(s.Rows, s.Cols) },
		func(i, j int, v float64) { c.Add(i, j, v) })
	if err != nil {
		return nil, err
	}
	c.Finalize()
	return c, nil
}

// Write emits a finalized COO as a general real coordinate Matrix
// Market file, each value as %.17g prints it, so it reads back
// bit-exactly.
func Write(w io.Writer, c *core.COO) error {
	bw := bufio.NewWriter(w)
	line := fmt.Appendf(nil, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n", c.Rows(), c.Cols(), c.Len())
	if _, err := bw.Write(line); err != nil {
		return err
	}
	for k, v := range c.V {
		line = strconv.AppendInt(line[:0], int64(c.I[k])+1, 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(c.J[k])+1, 10)
		line = append(line, ' ')
		line = strconv.AppendFloat(line, v, 'g', 17, 64)
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}
