package mmio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
)

// Size describes a coordinate file's declared shape.
type Size struct {
	Rows, Cols, NNZ int
	Header          Header
}

// ReadStream parses a Matrix Market stream without materializing a COO:
// onSize (optional) fires once after the header and size line; emit is
// then called once per stored entry (symmetric entries are expanded, so
// emit may fire up to twice per file line). Use it for matrices too
// large to hold twice in memory, or to feed assembly pipelines
// directly. Read is built on top of it.
//
// Rows and columns must fit in an int32, symmetric and skew-symmetric
// matrices must be square, and after the declared entries only blank and
// comment lines may follow. Fields are separated by ASCII white space.
// An entry line is parsed in place in the scanner's buffer and
// allocates nothing.
func ReadStream(r io.Reader, onSize func(Size), emit func(i, j int, v float64)) (Size, error) {
	sc := bufio.NewScanner(r)
	// Real-world Matrix Market files carry kilobyte-scale comment blocks
	// and some generators emit very long lines; start small but allow
	// lines up to 16 MiB before giving up (bufio.ErrTooLong otherwise).
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)

	h, err := readHeader(sc)
	if err != nil {
		return Size{}, err
	}
	var size Size
	size.Header = h
	for {
		line, err := nextLine(sc)
		if err != nil {
			return size, fmt.Errorf("mmio: missing size line: %w", err)
		}
		if len(line) == 0 {
			continue
		}
		if _, err := fmt.Sscan(string(line), &size.Rows, &size.Cols, &size.NNZ); err != nil {
			return size, fmt.Errorf("mmio: bad size line %q: %w", line, err)
		}
		break
	}
	if size.Rows <= 0 || size.Cols <= 0 || size.NNZ < 0 || size.Rows > math.MaxInt32 || size.Cols > math.MaxInt32 {
		// Every format indexes rows and columns with int32.
		return size, fmt.Errorf("mmio: invalid size %d %d %d", size.Rows, size.Cols, size.NNZ)
	}
	if h.Symmetry != "general" && size.Rows != size.Cols {
		// Mirroring entry (i,j) to (j,i) needs j <= rows and i <= cols.
		return size, fmt.Errorf("mmio: %s matrix must be square, not %dx%d", h.Symmetry, size.Rows, size.Cols)
	}
	if onSize != nil {
		onSize(size)
	}
	minFields := 3
	if h.Field == "pattern" {
		minFields = 2
	}
	var f [3][]byte
	for k := 0; ; {
		line, err := nextLine(sc)
		if err == io.EOF && k == size.NNZ {
			return size, nil
		}
		if err != nil {
			return size, fmt.Errorf("mmio: entry %d/%d: %w", k+1, size.NNZ, err)
		}
		if len(line) == 0 {
			continue
		}
		if k == size.NNZ {
			// An entry past the declared count would otherwise be dropped
			// without a word, and the caller would hold a different
			// matrix from the one in the file.
			return size, fmt.Errorf("mmio: data after the %d declared entries: %q", size.NNZ, line)
		}
		k++
		if fields(line, f[:minFields]) < minFields {
			return size, fmt.Errorf("mmio: entry %d: short line %q", k, line)
		}
		// string(b) of a short field does not escape, so it stays on the
		// stack: neither call allocates.
		i, err1 := strconv.Atoi(string(f[0]))
		j, err2 := strconv.Atoi(string(f[1]))
		if err1 != nil || err2 != nil {
			return size, fmt.Errorf("mmio: entry %d: bad coordinates %q", k, line)
		}
		if i < 1 || i > size.Rows || j < 1 || j > size.Cols {
			return size, fmt.Errorf("mmio: entry %d: coordinate (%d,%d) outside %dx%d", k, i, j, size.Rows, size.Cols)
		}
		v := 1.0
		if h.Field != "pattern" {
			v, err = strconv.ParseFloat(string(f[2]), 64)
			if err != nil {
				return size, fmt.Errorf("mmio: entry %d: bad value %q", k, f[2])
			}
			// NaN/Inf would silently poison every downstream dot product
			// and convergence test; fail at the door with a clear message.
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return size, fmt.Errorf("mmio: entry %d: non-finite value %q", k, f[2])
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
}

func readHeader(sc *bufio.Scanner) (Header, error) {
	if !sc.Scan() {
		return Header{}, fmt.Errorf("mmio: empty input")
	}
	line := sc.Bytes()
	var f [6][]byte
	if fields(bytes.ToLower(line), f[:]) != 5 || string(f[0]) != "%%matrixmarket" {
		return Header{}, fmt.Errorf("mmio: bad banner %q", line)
	}
	h := Header{Object: string(f[1]), Format: string(f[2]), Field: string(f[3]), Symmetry: string(f[4])}
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

// nextLine returns the next line that is not a % comment, without its
// leading white space, so a blank line is empty; io.EOF when exhausted.
// The line aliases the scanner's buffer and is valid until the next
// Scan.
func nextLine(sc *bufio.Scanner) ([]byte, error) {
	for sc.Scan() {
		line := sc.Bytes()
		for len(line) > 0 && space[line[0]] {
			line = line[1:]
		}
		if len(line) > 0 && line[0] == '%' {
			continue
		}
		return line, nil
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, io.EOF
}

// space marks the ASCII white space bytes, the separators
// strings.Fields uses on ASCII text.
var space = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// fields stores the first len(dst) white-space separated fields of line
// in dst and returns how many it found.
func fields(line []byte, dst [][]byte) int {
	n := 0
	for n < len(dst) {
		for len(line) > 0 && space[line[0]] {
			line = line[1:]
		}
		if len(line) == 0 {
			break
		}
		e := 1
		for e < len(line) && !space[line[e]] {
			e++
		}
		dst[n], line = line[:e], line[e:]
		n++
	}
	return n
}
