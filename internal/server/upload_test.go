package server

import (
	"bytes"
	"crypto/sha256"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/iotest"
)

// TestReadPiecesAllocatesByBytesReceived reads bodies around the piece
// sizes and checks that each comes back whole and costs at most twice
// its length, or one first piece for a body shorter than that. 1 KiB
// covers the list of pieces itself.
func TestReadPiecesAllocatesByBytesReceived(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, firstPiece - 1, firstPiece, firstPiece + 1,
		maxPiece - 1, maxPiece, maxPiece + 1, 10 << 20} {
		want := make([]byte, n)
		rng.Read(want)
		// The least of three reads, so that another goroutine's
		// allocation cannot fail the bound.
		var body pieces
		least := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b, err := readPieces(bytes.NewReader(want))
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("%d bytes: %v", n, err)
			}
			body, least = b, min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if bound := uint64(max(2*n, firstPiece) + 1024); least > bound {
			t.Errorf("%d bytes: read allocated %d bytes, want <= %d", n, least, bound)
		}
		got, err := io.ReadAll(body.reader())
		if err != nil || !bytes.Equal(got, want) || body.size() != int64(n) {
			t.Fatalf("%d bytes: read back %d bytes (size %d), err %v", n, len(got), body.size(), err)
		}
		if sum, err := body.sum(); err != nil || sum != sha256.Sum256(want) {
			t.Errorf("%d bytes: sum %x, err %v", n, sum, err)
		}
		if n >= 4 && (!body.hasPrefix(want[:4]) || body.hasPrefix([]byte{^want[0]})) {
			t.Errorf("%d bytes: hasPrefix wrong", n)
		}
	}
}

// TestReadPiecesPassesErrorsThrough: a read error mid-body (here, what
// a MaxBytesReader returns past its limit) reaches the caller as is.
func TestReadPiecesPassesErrorsThrough(t *testing.T) {
	errLimit := io.ErrClosedPipe
	r := io.MultiReader(bytes.NewReader(make([]byte, 3*firstPiece)), iotest.ErrReader(errLimit))
	if _, err := readPieces(r); err != errLimit {
		t.Fatalf("err = %v, want %v", err, errLimit)
	}
}
