package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"testing"
	"testing/iotest"
	"time"

	"spmv/internal/server/faulttest"
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
		var sum [sha256.Size]byte
		least := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b, s, err := readPieces(bytes.NewReader(want))
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("%d bytes: %v", n, err)
			}
			body, sum, least = b, s, min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if bound := uint64(max(2*n, firstPiece) + 1024); least > bound {
			t.Errorf("%d bytes: read allocated %d bytes, want <= %d", n, least, bound)
		}
		got, err := io.ReadAll(body.reader())
		if err != nil || !bytes.Equal(got, want) || body.size() != int64(n) {
			t.Fatalf("%d bytes: read back %d bytes (size %d), err %v", n, len(got), body.size(), err)
		}
		if sum != sha256.Sum256(want) {
			t.Errorf("%d bytes: sum %x, want the body's SHA-256", n, sum)
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
	if _, _, err := readPieces(r); err != errLimit {
		t.Fatalf("err = %v, want %v", err, errLimit)
	}
}

// TestUploadKeyIsBodyDigest pins the registry key: the first 8 bytes
// of the body's SHA-256 in hex, then the format the key stands for.
func TestUploadKeyIsBodyDigest(t *testing.T) {
	s := newTestServer(t, Config{})
	key := func(body []byte, format string) string {
		sum := sha256.Sum256(body)
		return hex.EncodeToString(sum[:8]) + "-" + format
	}
	mat := faulttest.ValidMatfile(2, 30, "csr-du")
	text := faulttest.ValidMMIO(2, 30)
	for _, tc := range []struct {
		body           []byte
		format, wantID string
	}{
		{mat, "", key(mat, "asis")},
		{mat, "csr-du", key(mat, "csr-du")},
		{text, "", key(text, textFormat)},
		{text, "csr", key(text, "csr")},
	} {
		if got := upload(t, s, tc.body, tc.format).ID; got != tc.wantID {
			t.Errorf("format %q: id %s, want %s", tc.format, got, tc.wantID)
		}
	}
}

// TestOversizedUploadStopsHashing trips MaxUploadBytes several pieces
// into a body: the upload gets 413 and the hashing goroutine ends with
// it, so the goroutine count settles back to its value before.
func TestOversizedUploadStopsHashing(t *testing.T) {
	s := newTestServer(t, Config{MaxUploadBytes: 5 * firstPiece})
	before := runtime.NumGoroutine()
	for range 4 {
		w := do(s, "POST", "/matrices", make([]byte, 64*firstPiece), nil)
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d, want 413", w.Code)
		}
	}
	if n := waitGoroutines(before, 5*time.Second); n > before {
		t.Fatalf("goroutines: %d before the uploads, %d after", before, n)
	}
}

// TestFlippedValuesChecksumRejected flips one bit of the values
// section's stored CRC: the upload gets 400 and registers nothing.
func TestFlippedValuesChecksumRejected(t *testing.T) {
	s := newTestServer(t, Config{})
	body := faulttest.ValidMatfile(3, 30, "csr")
	body[len(body)-1] ^= 1 // the last 4 bytes are the values section's CRC
	w := do(s, "POST", "/matrices", body, nil)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (%s)", w.Code, w.Body.String())
	}
	if n, _ := s.reg.stats(); n != 0 || s.Metrics().Builds.Load() != 0 {
		t.Fatalf("registry holds %d entries after a refused upload", n)
	}
}
