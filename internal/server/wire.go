package server

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"sync"
)

// The multiply wire codec (DESIGN.md §20). A request body is parsed
// straight out of a pooled byte buffer and a response is formatted into
// one, so the multiply path needs neither encoding/json's reflection
// nor its per-element allocations. The grammar is a strict subset of
// JSON: whatever the codec accepts, json.Unmarshal accepts with a
// bitwise-equal x, and every response is byte-identical to what
// json.Encoder writes for MultiplyResponse.

// wireBufs recycles the buffers request bodies are read into and
// responses are formatted into. A buffer grows only with bytes that
// were actually received or formatted — never from a declared
// Content-Length — so a forged header costs the server nothing.
var wireBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody reads r to EOF into a buffer from wireBufs; the caller
// returns it with wireBufs.Put. Read errors pass through unwrapped, so
// a MaxBytesReader's *http.MaxBytesError reaches the caller as is.
func readBody(r io.Reader) (*bytes.Buffer, error) {
	buf := wireBufs.Get().(*bytes.Buffer)
	buf.Reset()
	if _, err := buf.ReadFrom(r); err != nil {
		wireBufs.Put(buf)
		return nil, err
	}
	return buf, nil
}

// bodyError is a request body the codec refused. It is returned as a
// value and becomes an error only on the failure path, so a request
// that parses allocates nothing for it.
type bodyError struct {
	off  int    // byte offset where the body left the grammar; -1 for a length mismatch
	what string // what the grammar expected at off, or "fewer"/"more" elements; "" for none
	cols int
}

func (e bodyError) Error() string {
	if e.off < 0 {
		return fmt.Sprintf("server: x has %s elements than the matrix's %d columns", e.what, e.cols)
	}
	return fmt.Sprintf("server: decoding request: expected %s at byte %d", e.what, e.off)
}

// parseX parses a multiply request body into a new n-vector, or
// reports with a non-empty bodyError why it refused. The body must
// match
//
//	ws { ws "x" ws : ws [ ws number (ws , ws number)* ws ] ws } ws
//
// with exactly n RFC 8259 numbers, each finite as a float64. Anything
// else — another key, a second member, trailing bytes, NaN, a leading
// '+' or zero — is refused. The only allocation is x itself, made once
// the body is long enough to hold n elements, which keeps it
// proportional to the bytes the client actually sent.
func parseX(b []byte, n int) ([]float64, bodyError) {
	// `{"x":[` + n digits + n-1 commas + `]}`.
	if len(b) < 2*n+7 {
		return nil, bodyError{off: -1, what: "fewer", cols: n}
	}
	i := 0
	for _, tok := range [...]string{"{", `"x"`, ":", "["} {
		i = skipWS(b, i)
		if len(b)-i < len(tok) || string(b[i:i+len(tok)]) != tok {
			return nil, bodyError{off: i, what: tok}
		}
		i += len(tok)
	}
	x := make([]float64, n)
	k := 0
	if i = skipWS(b, i); i < len(b) && b[i] == ']' {
		i++
	} else {
		for {
			// Bitwise the float64 json.Unmarshal would produce.
			v, j, err := parseNumber(b, i)
			if j < 0 {
				return nil, bodyError{off: i, what: "a number"}
			}
			if k == n {
				return nil, bodyError{off: -1, what: "more", cols: n}
			}
			if err != nil {
				return nil, bodyError{off: i, what: "a number in float64 range"}
			}
			x[k] = v
			k++
			if i = skipWS(b, j); i < len(b) && b[i] == ',' {
				i = skipWS(b, i+1)
				continue
			}
			if i < len(b) && b[i] == ']' {
				i++
				break
			}
			return nil, bodyError{off: i, what: ", or ]"}
		}
	}
	if k < n {
		return nil, bodyError{off: -1, what: "fewer", cols: n}
	}
	if i = skipWS(b, i); i >= len(b) || b[i] != '}' {
		return nil, bodyError{off: i, what: "}"}
	}
	if i = skipWS(b, i+1); i != len(b) {
		return nil, bodyError{off: i, what: "end of body"}
	}
	return x, bodyError{}
}

// skipWS returns the index of the first non-whitespace byte at or
// after i (JSON whitespace: space, tab, newline, carriage return).
func skipWS(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// appendY appends y's response body, `{"y":[...]}` and a newline, to
// dst. JSON has no form for NaN or ±Inf: on the first non-finite
// element appendY stops and returns its row; otherwise the row is -1.
func appendY(dst []byte, y []float64) ([]byte, int) {
	dst = append(dst, `{"y":[`...)
	for i, v := range y {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return dst, i
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendFloat(dst, v)
	}
	return append(dst, "]}\n"...), -1
}
