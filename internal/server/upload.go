package server

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"io"
	"net"
)

// Upload bodies are read in pieces (DESIGN.md §21): each piece is
// filled once by io.ReadFull and never copied, so a body costs no
// re-copies as it grows. A piece is as large as all the pieces before
// it, up to maxPiece; the first is firstPiece bytes. The pieces then
// add up to at most twice the bytes received (or firstPiece, for a
// body shorter than that), whatever Content-Length claims.
const (
	firstPiece = 4 << 10
	maxPiece   = 4 << 20
)

// pieces is an upload body as read: every piece but the last is full.
type pieces [][]byte

// readPieces reads r to EOF. Read errors pass through unwrapped, so a
// MaxBytesReader's *http.MaxBytesError reaches the caller as is.
func readPieces(r io.Reader) (pieces, error) {
	var body pieces
	size, total := firstPiece, 0
	for {
		p := make([]byte, size)
		n, err := io.ReadFull(r, p)
		if n > 0 {
			body = append(body, p[:n])
		}
		switch {
		case errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF):
			return body, nil
		case err != nil:
			return nil, err
		}
		total += n
		size = min(total, maxPiece)
	}
}

// size is the body's length in bytes.
func (b pieces) size() int64 {
	var n int64
	for _, p := range b {
		n += int64(len(p))
	}
	return n
}

// hasPrefix reports whether the body starts with prefix, which must be
// no longer than firstPiece.
func (b pieces) hasPrefix(prefix []byte) bool {
	return len(b) > 0 && bytes.HasPrefix(b[0], prefix)
}

// sum is the body's SHA-256.
func (b pieces) sum() ([sha256.Size]byte, error) {
	var sum [sha256.Size]byte
	h := sha256.New()
	for _, p := range b {
		if _, err := h.Write(p); err != nil {
			return sum, err
		}
	}
	h.Sum(sum[:0])
	return sum, nil
}

// reader reads the body from its start; each call returns a new one.
func (b pieces) reader() io.Reader {
	r := append(net.Buffers(nil), b...)
	return &r
}
