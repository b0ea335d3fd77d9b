package server

import (
	"net/http"
	"sync"
	"testing"
	"time"

	"spmv/internal/core"
	"spmv/internal/server/faulttest"
)

// TestCoalescedBitwiseIdentical is the coalescer-correctness gate:
// concurrent single-vector requests on one matrix must return results
// bitwise identical to the same requests sent one at a time (which run
// as width-1 batches, bitwise-delegating to the scalar kernel per the
// PR-4 guarantee). Each format runs twice. With MaxBatch 4, a slowed
// executor lets later requests pile into the queue and coalesce at
// whatever widths the timing gives. With MaxBatch 8, the first batch is
// held until eight requests wait behind it, so the next batch is a full
// 8-wide panel: the width of the formats' dedicated k=8 kernels.
func TestCoalescedBitwiseIdentical(t *testing.T) {
	for _, format := range []string{"csr", "csr-du", "csr-vi"} {
		t.Run(format, func(t *testing.T) {
			t.Run("k4", func(t *testing.T) {
				widths := coalescedBitwise(t, format, 4, 12, func(*Server) func(string, int) error {
					return faulttest.SlowDown(5 * time.Millisecond)
				})
				var wide int64
				for w := 2; w < len(widths); w++ {
					wide += widths[w]
				}
				if wide == 0 {
					t.Fatalf("no coalesced batch of width > 1 recorded: %v", widths)
				}
			})
			t.Run("k8", func(t *testing.T) {
				widths := coalescedBitwise(t, format, 8, 16, holdUntilQueued(8))
				if widths[8] == 0 {
					t.Fatalf("no batch of width 8 recorded: %v", widths)
				}
			})
		})
	}
}

// coalescedBitwise uploads a matrix in format to a server with the
// given MaxBatch, multiplies k vectors one at a time and then all at
// once with hook installed as BeforeExecute for the concurrent pass,
// fails the test unless every concurrent reply is bitwise equal to its
// sequential one, and returns the server's batch-width histogram.
func coalescedBitwise(t *testing.T, format string, maxBatch, k int, hook func(*Server) func(string, int) error) []int64 {
	t.Helper()
	hooks := &Hooks{}
	s := newTestServer(t, Config{MaxBatch: maxBatch, Hooks: hooks})
	resp := upload(t, s, faulttest.ValidMMIO(21, 48), format)

	xs := make([][]float64, k)
	for i := range xs {
		x := testVec(resp.Cols)
		for j := range x {
			x[j] += float64(i)
		}
		xs[i] = x
	}

	// Sequential pass: one request at a time, each a width-1 batch
	// running the scalar kernel.
	want := make([][]float64, k)
	for i, x := range xs {
		code, y := multiply(t, s, resp.ID, x, nil)
		if code != http.StatusOK {
			t.Fatalf("sequential %d: status %d", i, code)
		}
		want[i] = y
	}

	// Concurrent pass: the hook holds execution back so the queue fills
	// and the coalescer drains it in wide panels.
	hooks.BeforeExecute = hook(s)
	got := make([][]float64, k)
	codes := make([]int, k)
	var wg sync.WaitGroup
	for i := range xs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], got[i] = multiply(t, s, resp.ID, xs[i],
				map[string]string{"X-Client-ID": string(rune('a' + i))})
		}(i)
	}
	wg.Wait()

	for i := range got {
		if codes[i] != http.StatusOK {
			t.Fatalf("concurrent %d: status %d", i, codes[i])
		}
		for j := range got[i] {
			if !core.SameBits(got[i][j], want[i][j]) {
				t.Fatalf("request %d: y[%d] = %x, want %x — coalesced result diverges from sequential",
					i, j, got[i][j], want[i][j])
			}
		}
	}
	return s.Metrics().BatchWidths()
}

// holdUntilQueued returns a BeforeExecute hook that holds the server's
// first batch until n requests wait in its matrix queues (for at most
// ten seconds) and lets every later batch through.
func holdUntilQueued(n int) func(*Server) func(string, int) error {
	return func(s *Server) func(string, int) error {
		var once sync.Once
		return func(string, int) error {
			once.Do(func() {
				for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
					queued := 0
					for _, e := range s.reg.snapshot() {
						queued += e.co.depth()
					}
					if queued >= n {
						return
					}
					time.Sleep(time.Millisecond)
				}
			})
			return nil
		}
	}
}
