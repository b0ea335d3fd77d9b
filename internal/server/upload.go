package server

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"io"
	"net"
	"sync/atomic"
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

// readPieces reads r to EOF and returns the body with its SHA-256.
// One goroutine hashes each piece, in order, while the next is read,
// so the digest is ready when the body ends. Read errors pass through
// unwrapped, so a MaxBytesReader's *http.MaxBytesError reaches the
// caller as is. The hashing goroutine has ended by the time
// readPieces returns.
func readPieces(r io.Reader) (pieces, [sha256.Size]byte, error) {
	// The queue lets the reader run a few pieces ahead of the hash; the
	// pieces are kept for the body anyway, so it costs no memory.
	full := make(chan []byte, 8)
	done := make(chan struct{})
	var stop atomic.Bool
	var sum [sha256.Size]byte
	var hashErr error
	go func() {
		defer close(done)
		h := sha256.New()
		for p := range full {
			// Once stop is set, the pieces still queued are not hashed.
			if hashErr == nil && !stop.Load() {
				_, hashErr = h.Write(p)
			}
		}
		h.Sum(sum[:0])
	}()
	// Room for the twelve pieces that double up to maxPiece and four
	// full ones, so the list does not regrow below 24 MB.
	body := make(pieces, 0, 16)
	size, total := firstPiece, 0
	for {
		p := make([]byte, size)
		n, err := io.ReadFull(r, p)
		switch {
		case errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF):
			if n > 0 {
				body = append(body, p[:n])
				full <- p[:n]
			}
			close(full)
			<-done
			return body, sum, hashErr
		case err != nil:
			stop.Store(true)
			close(full)
			<-done
			return nil, [sha256.Size]byte{}, err
		}
		body = append(body, p)
		full <- p
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

// reader reads the body from its start; each call returns a new one.
func (b pieces) reader() io.Reader {
	r := append(net.Buffers(nil), b...)
	return &r
}
