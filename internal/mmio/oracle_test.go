package mmio

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"spmv/internal/core"
)

// The oracle is the reader ReadStream replaced: each line through
// Text, TrimSpace and Fields, coordinates through strconv.Atoi. It
// differs from ReadStream only where ReadStream rejects on purpose: a
// non-square symmetric or skew-symmetric header, data after the
// declared entries, and Unicode white space, which the oracle splits on
// and ReadStream does not.

// oracleReadStream is the field-splitting reader kept as the fuzz
// reference.
func oracleReadStream(r io.Reader, onSize func(Size), emit func(i, j int, v float64)) (Size, error) {
	sc := bufio.NewScanner(r)
	// Real-world Matrix Market files carry kilobyte-scale comment blocks
	// and some generators emit very long lines; start small but allow
	// lines up to 16 MiB before giving up (bufio.ErrTooLong otherwise).
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)

	h, err := oracleReadHeader(sc)
	if err != nil {
		return Size{}, err
	}
	var size Size
	size.Header = h
	for {
		line, err := oracleNextLine(sc)
		if err != nil {
			return size, fmt.Errorf("mmio: missing size line: %w", err)
		}
		if line == "" {
			continue
		}
		if _, err := fmt.Sscan(line, &size.Rows, &size.Cols, &size.NNZ); err != nil {
			return size, fmt.Errorf("mmio: bad size line %q: %w", line, err)
		}
		break
	}
	if size.Rows <= 0 || size.Cols <= 0 || size.NNZ < 0 {
		return size, fmt.Errorf("mmio: invalid size %d %d %d", size.Rows, size.Cols, size.NNZ)
	}
	if onSize != nil {
		onSize(size)
	}
	for k := 0; k < size.NNZ; k++ {
		line, err := oracleNextLine(sc)
		if err != nil {
			return size, fmt.Errorf("mmio: entry %d/%d: %w", k+1, size.NNZ, err)
		}
		if line == "" {
			k--
			continue
		}
		fields := strings.Fields(line)
		minFields := 3
		if h.Field == "pattern" {
			minFields = 2
		}
		if len(fields) < minFields {
			return size, fmt.Errorf("mmio: entry %d: short line %q", k+1, line)
		}
		i, err1 := strconv.Atoi(fields[0])
		j, err2 := strconv.Atoi(fields[1])
		if err1 != nil || err2 != nil {
			return size, fmt.Errorf("mmio: entry %d: bad coordinates %q", k+1, line)
		}
		if i < 1 || i > size.Rows || j < 1 || j > size.Cols {
			return size, fmt.Errorf("mmio: entry %d: coordinate (%d,%d) outside %dx%d", k+1, i, j, size.Rows, size.Cols)
		}
		v := 1.0
		if h.Field != "pattern" {
			v, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return size, fmt.Errorf("mmio: entry %d: bad value %q", k+1, fields[2])
			}
			// NaN/Inf would silently poison every downstream dot product
			// and convergence test; fail at the door with a clear message.
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return size, fmt.Errorf("mmio: entry %d: non-finite value %q", k+1, fields[2])
			}
		}
		emit(i-1, j-1, v)
		if i != j {
			switch h.Symmetry {
			case "symmetric":
				emit(j-1, i-1, v)
			case "skew-symmetric":
				emit(j-1, i-1, -v)
			}
		}
	}
	return size, nil
}

func oracleReadHeader(sc *bufio.Scanner) (Header, error) {
	if !sc.Scan() {
		return Header{}, fmt.Errorf("mmio: empty input")
	}
	line := strings.TrimSpace(sc.Text())
	fields := strings.Fields(strings.ToLower(line))
	if len(fields) != 5 || fields[0] != "%%matrixmarket" {
		return Header{}, fmt.Errorf("mmio: bad banner %q", line)
	}
	h := Header{Object: fields[1], Format: fields[2], Field: fields[3], Symmetry: fields[4]}
	if h.Object != "matrix" {
		return h, fmt.Errorf("mmio: unsupported object %q", h.Object)
	}
	if h.Format != "coordinate" {
		return h, fmt.Errorf("mmio: unsupported format %q (only coordinate)", h.Format)
	}
	switch h.Field {
	case "real", "integer", "pattern":
	default:
		return h, fmt.Errorf("mmio: unsupported field %q", h.Field)
	}
	switch h.Symmetry {
	case "general", "symmetric", "skew-symmetric":
	default:
		return h, fmt.Errorf("mmio: unsupported symmetry %q", h.Symmetry)
	}
	return h, nil
}

// oracleNextLine returns the next line with comments stripped; io.EOF
// when exhausted.
func oracleNextLine(sc *bufio.Scanner) (string, error) {
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "%") {
			continue
		}
		return line, nil
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", io.EOF
}

// oracleWrite is the fmt-based writer Write replaced.
func oracleWrite(w io.Writer, c *core.COO) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "%%MatrixMarket matrix coordinate real general"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", c.Rows(), c.Cols(), c.Len()); err != nil {
		return err
	}
	for k := 0; k < c.Len(); k++ {
		i, j, v := c.At(k)
		if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, j+1, v); err != nil {
			return err
		}
	}
	return bw.Flush()
}
