package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"spmv/internal/mmio"
	"spmv/internal/server"
	"spmv/internal/server/faulttest"
)

// runSelfcheck boots the daemon on a loopback port and runs the
// verify.sh server smoke against it, end to end through real TCP:
//
//  1. /healthz answers,
//  2. a Matrix Market upload is admitted and queryable, and one that
//     names no format is built as csr-du,
//  3. multiply returns the reference product,
//  4. a corrupt upload is rejected with 400,
//  5. overload sheds with 429 while admitted requests still finish,
//  6. /metrics reports the traffic,
//  7. SIGTERM (sent to ourselves — the real signal path) drains
//     cleanly and the listener goes away.
//
// The overload step is deterministic, not load-dependent: a fault
// hook gates execution shut, so the admission queue (capacity 2 here)
// must overflow once more than queue+batch requests are in flight.
func runSelfcheck(cfg server.Config, drainTimeout time.Duration) error {
	cfg.QueueDepth = 2
	cfg.MaxBatch = 2
	cfg.MaxPerClient = 64
	cfg.DefaultDeadline = 5 * time.Second
	gate := make(chan struct{})
	var gated atomic.Bool
	cfg.Hooks = &server.Hooks{BeforeExecute: func(string, int) error {
		if gated.Load() {
			<-gate
		}
		return nil
	}}

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	ready := make(chan *server.Server, 1)
	served := make(chan error, 1)
	go func() { served <- serve(cfg, lis, drainTimeout, ready) }()
	<-ready
	cl := smokeClient{
		base: "http://" + lis.Addr().String(),
		hc:   &http.Client{Timeout: 10 * time.Second},
	}

	// 1. Liveness.
	if code, _, err := cl.get("/healthz"); err != nil || code != 200 {
		return fmt.Errorf("healthz: code %d, err %v", code, err)
	}

	// 2. Upload and query back.
	body := faulttest.ValidMMIO(7, 32)
	code, raw, err := cl.post("/matrices?format=csr-du", body)
	if err != nil || code != http.StatusCreated {
		return fmt.Errorf("upload: code %d, err %v: %s", code, err, raw)
	}
	var up server.UploadResponse
	if err := json.Unmarshal(raw, &up); err != nil {
		return fmt.Errorf("upload response: %w", err)
	}
	if code, _, err := cl.get("/matrices/" + up.ID); err != nil || code != 200 {
		return fmt.Errorf("query %s: code %d, err %v", up.ID, code, err)
	}
	var plain server.UploadResponse
	code, raw, err = cl.post("/matrices", faulttest.ValidMMIO(8, 32))
	if err != nil || code != http.StatusCreated || json.Unmarshal(raw, &plain) != nil || plain.Format != "csr-du" {
		return fmt.Errorf("upload with no format: code %d, err %v, want a new csr-du build: %s", code, err, raw)
	}

	// 3. Multiply against the reference product.
	x := make([]float64, up.Cols)
	for i := range x {
		x[i] = 1 + float64(i%5)
	}
	y, err := cl.multiply(up.ID, x)
	if err != nil {
		return fmt.Errorf("multiply: %w", err)
	}
	coo, err := mmio.Read(bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("reference parse: %w", err)
	}
	ref := make([]float64, up.Rows)
	coo.SpMV(ref, x)
	for i := range ref {
		if math.Abs(y[i]-ref[i]) > 1e-9*(1+math.Abs(ref[i])) {
			return fmt.Errorf("multiply: y[%d] = %g, reference %g", i, y[i], ref[i])
		}
	}

	// 4. Corrupt upload rejected.
	bad := append([]byte(nil), body...)
	bad[10] ^= 0x40
	if code, raw, err := cl.post("/matrices", bad); err != nil || code != http.StatusBadRequest {
		return fmt.Errorf("corrupt upload: code %d, err %v: %s", code, err, raw)
	}

	// 5. Deterministic overload: execution is gated shut, so with the
	// queue (2) and one in-flight batch (≤2) saturated, 10 concurrent
	// requests must shed at least one 429. Gated requests released
	// afterwards may finish 200 or time out 504; nothing else.
	gated.Store(true)
	const flood = 10
	codes := make(chan int, flood)
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cl.multiply(up.ID, x); err != nil {
				var se statusError
				if errors.As(err, &se) {
					codes <- se.code
					return
				}
				codes <- -1
				return
			}
			codes <- http.StatusOK
		}()
	}
	sawShed := false
	deadline := time.After(5 * time.Second)
wait:
	for !sawShed {
		select {
		case c := <-codes:
			if c == http.StatusTooManyRequests {
				sawShed = true
			}
		case <-deadline:
			break wait
		}
	}
	close(gate)
	gated.Store(false)
	wg.Wait()
	if !sawShed {
		return fmt.Errorf("overload: no 429 among %d gated concurrent requests", flood)
	}

	// 6. Metrics reflect the traffic.
	code, raw, err = cl.get("/metrics")
	if err != nil || code != 200 {
		return fmt.Errorf("metrics: code %d, err %v", code, err)
	}
	var snap server.MetricsSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return fmt.Errorf("metrics decode: %w", err)
	}
	if snap.RequestsTotal == 0 || snap.Shed == 0 || snap.UploadsRejected == 0 {
		return fmt.Errorf("metrics: requests=%d shed=%d rejected=%d, all must be nonzero",
			snap.RequestsTotal, snap.Shed, snap.UploadsRejected)
	}
	if _, ok := snap.Matrices[up.ID]; !ok {
		return fmt.Errorf("metrics: matrix %s missing from snapshot", up.ID)
	}
	if mm := snap.Matrices[up.ID]; len(mm.Spans) == 0 {
		return fmt.Errorf("metrics: matrix %s has no lifecycle span histograms", up.ID)
	}

	// 6b. The Prometheus exposition serves the same traffic: the right
	// content type, the request counter, and a span histogram series for
	// the uploaded matrix (the full format checker runs in the server
	// package's tests; this is the live-daemon smoke).
	code, raw, ct, err := cl.getWithType("/metrics.prom")
	if err != nil || code != 200 {
		return fmt.Errorf("metrics.prom: code %d, err %v", code, err)
	}
	if !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		return fmt.Errorf("metrics.prom: content type %q", ct)
	}
	prom := string(raw)
	for _, want := range []string{
		"# TYPE spmv_requests_total counter",
		"spmv_request_span_seconds_bucket{matrix=\"" + up.ID + "\",span=\"total\",le=\"+Inf\"}",
		"spmv_goroutines",
	} {
		if !strings.Contains(prom, want) {
			return fmt.Errorf("metrics.prom: missing %q", want)
		}
	}

	// 7. SIGTERM to ourselves exercises the real drain path.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		return fmt.Errorf("sigterm: %w", err)
	}
	select {
	case err := <-served:
		if err != nil {
			return fmt.Errorf("drain after SIGTERM: %w", err)
		}
	case <-time.After(drainTimeout + 5*time.Second):
		return fmt.Errorf("drain after SIGTERM: timed out")
	}
	if _, _, err := cl.get("/healthz"); err == nil {
		return fmt.Errorf("listener still answering after drain")
	}
	return nil
}

// smokeClient is a minimal HTTP helper over the loopback daemon.
type smokeClient struct {
	base string
	hc   *http.Client
}

// statusError carries a non-200 multiply status up to the overload
// counter.
type statusError struct{ code int }

func (e statusError) Error() string { return fmt.Sprintf("status %d", e.code) }

func (c smokeClient) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, raw, err
}

func (c smokeClient) get(path string) (int, []byte, error) {
	return c.do(http.MethodGet, path, nil)
}

// getWithType is get plus the response Content-Type, for endpoints
// whose media type is part of the contract (/metrics.prom).
func (c smokeClient) getWithType(path string) (int, []byte, string, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return 0, nil, "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, "", err
	}
	raw, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, raw, resp.Header.Get("Content-Type"), err
}

func (c smokeClient) post(path string, body []byte) (int, []byte, error) {
	return c.do(http.MethodPost, path, body)
}

// multiply posts x against id and returns y, or a statusError for any
// non-200 answer.
func (c smokeClient) multiply(id string, x []float64) ([]float64, error) {
	mb, err := json.Marshal(server.MultiplyRequest{X: x})
	if err != nil {
		return nil, err
	}
	code, raw, err := c.post("/matrices/"+id+"/multiply", mb)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, statusError{code: code}
	}
	var resp server.MultiplyResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, err
	}
	return resp.Y, nil
}
