package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
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

// TestCanceledBatchRunsNoKernel: a batch whose context is done by the
// time it reaches the executor must not run the kernel. A width-1
// batch runs under its request's context, so a deadline that expires
// while BeforeExecute holds it leaves the matrix's run count alone; a
// wider batch runs under the server's context, which Drain cancels
// when its budget runs out. Either call in coalescer.execute that
// dropped its context (Run for RunCtx, RunBatch for RunBatchCtx) would
// run one more kernel here.
func TestCanceledBatchRunsNoKernel(t *testing.T) {
	// hold returns a BeforeExecute hook that reports each batch's width
	// on entered and then waits for a value on release.
	hold := func(t *testing.T) (hooks *Hooks, entered chan int, release chan struct{}) {
		entered = make(chan int, 8)
		release = make(chan struct{})
		ended := make(chan struct{})
		t.Cleanup(func() { close(ended) }) // runs before the server's Close
		hooks = &Hooks{BeforeExecute: func(_ string, width int) error {
			entered <- width
			select {
			case <-release:
			case <-ended:
			}
			return nil
		}}
		return hooks, entered, release
	}

	t.Run("width1-deadline", func(t *testing.T) {
		hooks, entered, release := hold(t)
		s := newTestServer(t, Config{MaxBatch: 4, Hooks: hooks})
		resp := upload(t, s, faulttest.ValidMMIO(31, 40), "csr")
		rec := s.reg.snapshot()[0].rec

		code := make(chan int, 1)
		go func() {
			code <- do(s, "POST", "/matrices/"+resp.ID+"/multiply", mulBody(t, resp.Cols), map[string]string{"X-Deadline-Ms": "50"}).Code
		}()
		if w := <-entered; w != 1 {
			t.Fatalf("batch width %d, want 1", w)
		}
		runs := rec.Snapshot().Runs
		if c := <-code; c != http.StatusGatewayTimeout {
			t.Fatalf("status %d, want 504", c)
		}
		release <- struct{}{}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil { // waits for the batch to finish
			t.Fatal(err)
		}
		if got := rec.Snapshot().Runs; got != runs {
			t.Fatalf("%d kernel runs after the request's deadline, want none", got-runs)
		}
	})

	t.Run("wide-drain-budget", func(t *testing.T) {
		hooks, entered, release := hold(t)
		s := newTestServer(t, Config{MaxBatch: 4, Hooks: hooks})
		resp := upload(t, s, faulttest.ValidMMIO(32, 40), "csr")
		e := s.reg.snapshot()[0]

		body := mulBody(t, resp.Cols)
		var wg sync.WaitGroup
		send := func() {
			wg.Add(1)
			go func() {
				defer wg.Done()
				do(s, "POST", "/matrices/"+resp.ID+"/multiply", body, nil)
			}()
		}
		// The first request's batch holds the coalescer while three
		// more queue behind it; they then go out as one batch.
		send()
		<-entered
		for range 3 {
			send()
		}
		for deadline := time.Now().Add(10 * time.Second); e.co.depth() < 3; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("queue depth %d, want 3", e.co.depth())
			}
		}
		release <- struct{}{}
		if w := <-entered; w != 3 {
			t.Fatalf("batch width %d, want 3", w)
		}
		runs := e.rec.Snapshot().Runs

		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		drained := make(chan error, 1)
		go func() { drained <- s.Drain(ctx) }()
		for s.baseCtx.Err() == nil { // Drain cancels it once its budget is spent
			time.Sleep(time.Millisecond)
		}
		release <- struct{}{}
		if err := <-drained; !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Drain = %v, want its budget's deadline", err)
		}
		wg.Wait()
		if got := e.rec.Snapshot().Runs; got != runs {
			t.Fatalf("%d kernel runs after Drain canceled the batch, want none", got-runs)
		}
	})
}

// TestStoppedCoalescerRefusesEveryEnqueue: once stopped, a coalescer
// answers each enqueue with its stop cause and stays unlocked. The
// server stops an entry's coalescer when it evicts or drains the
// entry, so only a request already holding the entry gets this far.
func TestStoppedCoalescerRefusesEveryEnqueue(t *testing.T) {
	s := newTestServer(t, Config{})
	resp := upload(t, s, faulttest.ValidMMIO(33, 40), "csr")
	e, _ := s.reg.remove(resp.ID) // the server's Close leaves it alone
	defer e.runner.Close()
	e.co.stop(errEvicted)
	done := make(chan error, 2)
	go func() {
		for range 2 {
			done <- e.co.enqueue(&mulReq{ctx: context.Background(), x: testVec(resp.Cols), done: make(chan mulRes, 1)})
		}
	}()
	for i := range 2 {
		select {
		case err := <-done:
			if !errors.Is(err, errEvicted) {
				t.Fatalf("enqueue %d after stop: %v, want %v", i, err, errEvicted)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("enqueue %d after stop blocked: the coalescer stayed locked", i)
		}
	}
	if d := e.co.depth(); d != 0 {
		t.Fatalf("depth %d after stop, want 0", d)
	}
}

// TestClientCancelEndsQueuedRequest: a request queued behind a held
// batch ends when its client goes away, not at its deadline; the
// request context the handler queues must be the client's.
func TestClientCancelEndsQueuedRequest(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	var once sync.Once
	held := make(chan struct{})
	s := newTestServer(t, Config{DefaultDeadline: time.Minute, Hooks: &Hooks{BeforeExecute: func(string, int) error {
		once.Do(func() { close(held) })
		<-release
		return nil
	}}})
	resp := upload(t, s, faulttest.ValidMMIO(34, 40), "csr")
	body := mulBody(t, resp.Cols)
	go do(s, "POST", "/matrices/"+resp.ID+"/multiply", body, nil) // holds the coalescer
	<-held

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("POST", "/matrices/"+resp.ID+"/multiply", bytes.NewReader(body)).WithContext(ctx)
	w := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.ServeHTTP(w, req)
	}()
	for deadline := time.Now().Add(10 * time.Second); s.reg.snapshot()[0].co.depth() < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the second request never queued")
		}
	}
	cancel()
	select {
	case <-done:
		if w.Code != http.StatusGatewayTimeout {
			t.Fatalf("status %d, want 504", w.Code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the request outlived its client's cancellation")
	}
}

// mulBody is a multiply request body for a matrix with cols columns,
// made on the test's goroutine so the requests sent from others need
// no t.
func mulBody(t *testing.T, cols int) []byte {
	t.Helper()
	body, err := json.Marshal(MultiplyRequest{X: testVec(cols)})
	if err != nil {
		t.Fatal(err)
	}
	return body
}
