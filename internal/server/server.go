// Package server is the SpMV-as-a-service layer: a long-running HTTP
// server owning a registry of verified, compressed matrices and
// serving y = A·x from shared multithreaded executors.
//
// Every design choice follows from the paper's thesis that SpMV is
// memory-bandwidth-bound: past the bandwidth roof, admitting more
// concurrent requests only adds latency, so the server practices
// admission control — bounded queues that shed load with 429/503
// rather than queue unboundedly — and coalesces concurrent requests on
// the same matrix into SpMM panels, which cost a fraction of the
// per-vector memory traffic (PR 4) and are therefore the
// overload-survival fast path.
//
// The pipeline is admission → coalesce → execute → degrade:
//
//   - admission: per-matrix bounded queues, a per-client in-flight
//     cap, a build-concurrency cap on uploads, and per-request
//     deadlines. Full anything returns 429 with Retry-After.
//   - coalesce: one goroutine per matrix drains up to MaxBatch queued
//     requests into a single RunBatch panel. Width 1 delegates to the
//     scalar kernel bitwise.
//   - execute: the PR-1 panic-recovering executors; kernel panics
//     surface as chunk-scoped errors, never as worker death.
//   - degrade: a failed or panicking batch costs its own requests a
//     500 while the loop, the pool and all other matrices stay
//     healthy. Eviction and drains answer queued requests with 503.
//
// Ingest runs the full PR-1 verification stack (mmio hardening,
// matfile v2 checksums + the ReadSized alloc-bomb guard, core.Verify)
// before a matrix is admitted; builds are content-addressed and
// singleflighted, and the registry LRU-evicts under a byte budget.
package server

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"log/slog"

	"spmv/internal/autotune"
	"spmv/internal/core"
	"spmv/internal/formats"
	"spmv/internal/matfile"
	"spmv/internal/mmio"
	"spmv/internal/obs"
	"spmv/internal/parallel"
	"spmv/internal/roofline"
)

var errTooLarge = core.Usagef("server: matrix exceeds the memory budget")

// matfileMagic mirrors the matfile container magic for upload sniffing.
var matfileMagic = []byte("SPMV")

// textFormat is the format a Matrix Market upload that names none is
// built in: csr-du, the paper's index-compressed format, in one build.
// Such an upload is not tuned; format=auto asks for that.
const textFormat = "csr-du"

// Config tunes the server. The zero value is usable: every limit has a
// production-shaped default, applied by New.
type Config struct {
	// MemoryBudget bounds the registry's summed matrix bytes; least
	// recently used matrices are evicted past it. Default 256 MiB.
	MemoryBudget int64
	// MaxUploadBytes bounds one upload body. Default 64 MiB.
	MaxUploadBytes int64
	// MaxBatch caps the coalescer's SpMM panel width. Default 8.
	MaxBatch int
	// QueueDepth bounds each matrix's admission queue; a full queue
	// sheds with 429. Default 64.
	QueueDepth int
	// MaxPerClient caps one client's in-flight multiply requests
	// (fairness: one greedy client cannot occupy every queue slot).
	// Default 16.
	MaxPerClient int
	// MaxConcurrentBuilds caps concurrently ingesting uploads; builds
	// are O(nnz) and memory-hungry. Default 2.
	MaxConcurrentBuilds int
	// DefaultDeadline is the per-request deadline when the client sends
	// none, and the cap on client-requested deadlines. Default 10s.
	DefaultDeadline time.Duration
	// WriteTimeout bounds writing a response body to a slow consumer.
	// Default 10s.
	WriteTimeout time.Duration
	// Threads is the executor worker count per matrix; 0 means
	// GOMAXPROCS.
	Threads int
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
	// Logger, when non-nil, receives structured records (log/slog): one
	// per failed request with the request id, matrix, client, HTTP
	// status and span timings, plus operational events that previously
	// went only through Logf. A JSON handler makes the stream
	// machine-parseable; nil disables structured logging.
	Logger *slog.Logger
	// Roofline, when non-nil, is the host's bandwidth model; its
	// ceilings are exported as gauges on /metrics.prom so dashboards
	// can plot served bandwidth against the memory wall.
	Roofline *roofline.Model
	// Hooks inject faults for tests; nil in production.
	Hooks *Hooks
}

func (c Config) withDefaults() Config {
	if c.MemoryBudget <= 0 {
		c.MemoryBudget = 256 << 20
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 64 << 20
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxPerClient <= 0 {
		c.MaxPerClient = 16
	}
	if c.MaxConcurrentBuilds <= 0 {
		c.MaxConcurrentBuilds = 2
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 10 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	return c
}

// Server is the SpMV service. Create with New, mount as an
// http.Handler, and shut down with Drain (graceful) or Close (hard).
type Server struct {
	cfg     Config
	reg     *registry
	metrics *Metrics
	mux     *http.ServeMux

	baseCtx context.Context
	cancel  context.CancelFunc

	draining atomic.Bool
	buildSem chan struct{}

	// reqSeq issues the request ids structured log records carry.
	reqSeq atomic.Int64

	clientMu sync.Mutex
	clients  map[string]int
}

// New builds a Server from cfg (zero value fine; see Config).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		reg:      newRegistry(cfg.MemoryBudget),
		metrics:  newMetrics(cfg.MaxBatch),
		mux:      http.NewServeMux(),
		baseCtx:  ctx,
		cancel:   cancel,
		buildSem: make(chan struct{}, cfg.MaxConcurrentBuilds),
		clients:  make(map[string]int),
	}
	s.reg.onEvict = func(*entry) { s.metrics.Evictions.Add(1) }
	s.routes()
	return s
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /matrices", s.handleUpload)
	s.mux.HandleFunc("GET /matrices", s.handleList)
	s.mux.HandleFunc("GET /matrices/{id}", s.handleInfo)
	s.mux.HandleFunc("DELETE /matrices/{id}", s.handleDelete)
	s.mux.HandleFunc("POST /matrices/{id}/multiply", s.handleMultiply)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /metrics.prom", s.handleMetricsProm)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Metrics returns the live counter set (for tests and embedders).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Logf writes one line through the configured Config.Logf; a nil
// logger makes it a no-op. Exported for the daemon wrapper, which
// logs lifecycle events through the same sink as the server's own.
func (s *Server) Logf(format string, args ...any) { s.logf(format, args...) }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
		return
	}
	// Without a printf sink, operational lines flow into the structured
	// logger so they are never silently dropped.
	if s.cfg.Logger != nil {
		s.cfg.Logger.Warn(fmt.Sprintf(format, args...))
	}
}

// Drain gracefully shuts the server down: new work is refused with
// 503, every queued request is executed and answered, then the
// executor pools are closed. If ctx expires first, the base context is
// canceled so the backlog fails fast, and Drain still waits for the
// pipeline goroutines to exit — it never leaks them.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, e := range s.reg.drainAll() {
			e.co.drain()
			e.runner.Close()
		}
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.cancel() // abort the backlog; coalescers exit promptly
		<-done
	}
	s.cancel()
	return err
}

// Close hard-stops the server: queued requests are answered 503 and
// the pools are closed. Idempotent, and safe after Drain.
func (s *Server) Close() {
	s.draining.Store(true)
	s.cancel()
	for _, e := range s.reg.drainAll() {
		e.co.stop(errDraining)
		e.runner.Close()
	}
}

// ---- error mapping ----

type apiError struct {
	Error string `json:"error"`
}

func (s *Server) httpError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if encErr := json.NewEncoder(w).Encode(apiError{Error: err.Error()}); encErr != nil {
		s.logf("error response encode: %v", encErr)
	}
}

// statusFor maps pipeline errors to HTTP statuses. Specific sentinels
// come before the generic typed classes they wrap.
func statusFor(err error) int {
	switch {
	case errors.Is(err, errQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, errDraining), errors.Is(err, errEvicted):
		return http.StatusServiceUnavailable
	case errors.Is(err, errTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, core.ErrUsage), errors.Is(err, core.ErrCorrupt),
		errors.Is(err, core.ErrTruncated), errors.Is(err, core.ErrShape):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// ---- fairness ----

// clientID attributes a request to a client for the fairness cap: the
// X-Client-ID header when present, else the connection's host part.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// acquireClient admits one in-flight request for id, or reports the
// cap reached.
func (s *Server) acquireClient(id string) bool {
	s.clientMu.Lock()
	defer s.clientMu.Unlock()
	if s.clients[id] >= s.cfg.MaxPerClient {
		return false
	}
	s.clients[id]++
	return true
}

func (s *Server) releaseClient(id string) {
	s.clientMu.Lock()
	defer s.clientMu.Unlock()
	if s.clients[id]--; s.clients[id] <= 0 {
		delete(s.clients, id)
	}
}

// ---- upload / registry handlers ----

// UploadResponse is the JSON answer to a successful upload.
type UploadResponse struct {
	ID        string `json:"id"`
	Format    string `json:"format"`
	Rows      int    `json:"rows"`
	Cols      int    `json:"cols"`
	NNZ       int    `json:"nnz"`
	SizeBytes int64  `json:"size_bytes"`
	Cached    bool   `json:"cached"`
}

// failUpload answers a failed upload and emits one structured record,
// mirroring failMultiply for the ingest path.
func (s *Server) failUpload(r *http.Request, w http.ResponseWriter, status int, err error) {
	s.httpError(w, status, err)
	if l := s.cfg.Logger; l != nil {
		l.LogAttrs(r.Context(), slog.LevelWarn, "upload failed",
			slog.String("client", clientID(r)),
			slog.Int("status", status),
			slog.String("error", err.Error()))
	}
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.failUpload(r, w, http.StatusServiceUnavailable, errDraining)
		return
	}
	body, sum, err := readPieces(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes))
	if err != nil {
		s.metrics.UploadsRejected.Add(1)
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.failUpload(r, w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("server: upload exceeds %d bytes", s.cfg.MaxUploadBytes))
			return
		}
		s.failUpload(r, w, http.StatusBadRequest, fmt.Errorf("server: reading upload: %w", err))
		return
	}
	s.metrics.UploadsTotal.Add(1)

	formatName := r.URL.Query().Get("format")
	explicit := formatName != ""
	if !explicit {
		formatName = textFormat
	}
	keyFormat := formatName
	if !explicit && body.hasPrefix(matfileMagic) {
		// A matfile container stores a built format already; it is
		// admitted as-is, so the cache key ignores textFormat.
		// An explicit format request keeps its own key, so the
		// stored-vs-requested match is validated on the build path.
		keyFormat = "asis"
	}
	key := hex.EncodeToString(sum[:8]) + "-" + keyFormat

	// Cache fast path: no build slot needed.
	if e, ok := s.reg.get(key); ok {
		s.metrics.BuildCacheHits.Add(1)
		s.writeUploadResponse(w, http.StatusOK, e, true)
		return
	}
	select {
	case s.buildSem <- struct{}{}:
		defer func() { <-s.buildSem }()
	default:
		s.metrics.Shed.Add(1)
		s.failUpload(r, w, http.StatusTooManyRequests,
			core.Usagef("server: build concurrency limit reached"))
		return
	}
	e, cached, err := s.reg.getOrBuild(key, func() (*entry, error) {
		return s.ingest(key, body, formatName, explicit)
	})
	if err != nil {
		s.metrics.UploadsRejected.Add(1)
		s.failUpload(r, w, statusFor(err), err)
		return
	}
	if cached {
		s.metrics.BuildCacheHits.Add(1)
		s.writeUploadResponse(w, http.StatusOK, e, true)
		return
	}
	s.metrics.Builds.Add(1)
	s.writeUploadResponse(w, http.StatusCreated, e, false)
}

func (s *Server) writeUploadResponse(w http.ResponseWriter, status int, e *entry, cached bool) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	resp := UploadResponse{
		ID:        e.id,
		Format:    e.format.Name(),
		Rows:      e.format.Rows(),
		Cols:      e.format.Cols(),
		NNZ:       e.format.NNZ(),
		SizeBytes: e.size,
		Cached:    cached,
	}
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		s.logf("upload response encode: %v", err)
	}
}

// badUpload classifies a parse/verify failure as the client's fault:
// errors already carrying a typed sentinel (and thus a non-500
// mapping) pass through, everything else — older plain-text mmio and
// matfile messages included — is wrapped as corrupt input so the
// handler answers 400, not 500.
func badUpload(err error) error {
	if statusFor(err) != http.StatusInternalServerError {
		return err
	}
	return fmt.Errorf("%w: %w", core.ErrCorrupt, err)
}

// ingest parses, verifies and builds one upload into a registry entry.
// Corrupt bytes fail here with the PR-1 typed sentinels — nothing
// unverified is ever admitted.
func (s *Server) ingest(key string, body pieces, formatName string, explicit bool) (*entry, error) {
	var f core.Format
	var tune *autotune.Report
	if body.hasPrefix(matfileMagic) {
		// matfile v2: checksum-verified, alloc-bomb-guarded sized read.
		m, err := matfile.ReadSized(body.reader(), body.size())
		if err != nil {
			return nil, badUpload(err)
		}
		// A matfile stores a built format already, so there is nothing
		// for format=auto to tune — it is admitted as-is.
		if explicit && formatName != "auto" && m.Name() != formatName {
			return nil, core.Usagef("server: matfile stores %q, request asked for %q",
				m.Name(), formatName)
		}
		f = m
	} else {
		c, err := mmio.Read(body.reader())
		if err != nil {
			return nil, badUpload(err)
		}
		// Dimension-bomb guard: mmio dims are unchecksummed text, and a
		// header claiming huge rows/cols with few entries would make
		// formats.Build allocate rows-proportional memory (and clients
		// allocate cols-length vectors) before the post-build size check
		// could see it. Estimate the CSR footprint from the claimed dims
		// and reject before building. The tuner holds up to three
		// matrices at once (CSR, the best so far and the one it times),
		// so format=auto is charged three.
		mat := int64(c.Rows()+1)*4 + int64(c.Len())*12
		if formatName == "auto" {
			mat *= 3
		}
		if est := mat + int64(c.Cols())*8; est > s.cfg.MemoryBudget {
			return nil, fmt.Errorf("%w (estimated %d > %d bytes)", errTooLarge, est, s.cfg.MemoryBudget)
		}
		if formatName == "auto" {
			// The tuner times its short list at the server's thread
			// count and returns the winner built. The decision trace
			// lands on the entry and is served by /metrics.
			if f, tune, err = autotune.Tune(c, autotune.Options{Threads: s.cfg.Threads}); err != nil {
				return nil, badUpload(err)
			}
		} else if f, err = formats.Build(formatName, c); err != nil {
			return nil, badUpload(err)
		}
		if err := core.Verify(f); err != nil {
			return nil, badUpload(err)
		}
	}
	size := f.SizeBytes()
	if size > s.cfg.MemoryBudget {
		return nil, fmt.Errorf("%w (%d > %d bytes)", errTooLarge, size, s.cfg.MemoryBudget)
	}
	rec := obs.NewRecorder()
	runner, err := parallel.New(f, parallel.ExecOptions{Threads: s.cfg.Threads, Collector: rec})
	if err != nil {
		return nil, err
	}
	e := &entry{id: key, format: f, runner: runner, rec: rec, spans: newLifecycleSpans(), size: size, tune: tune}
	e.co = newCoalescer(e, s.cfg.MaxBatch, s.cfg.QueueDepth, s.baseCtx, s.metrics, s.cfg.Hooks)
	return e, nil
}

// MatrixInfo is the JSON shape of GET /matrices and GET /matrices/{id}.
type MatrixInfo struct {
	ID        string `json:"id"`
	Format    string `json:"format"`
	Rows      int    `json:"rows"`
	Cols      int    `json:"cols"`
	NNZ       int    `json:"nnz"`
	SizeBytes int64  `json:"size_bytes"`
}

func infoOf(e *entry) MatrixInfo {
	return MatrixInfo{
		ID:        e.id,
		Format:    e.format.Name(),
		Rows:      e.format.Rows(),
		Cols:      e.format.Cols(),
		NNZ:       e.format.NNZ(),
		SizeBytes: e.size,
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	entries := s.reg.snapshot()
	infos := make([]MatrixInfo, 0, len(entries))
	for _, e := range entries {
		infos = append(infos, infoOf(e))
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(infos); err != nil {
		s.logf("list encode: %v", err)
	}
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	e, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		s.httpError(w, http.StatusNotFound, fmt.Errorf("server: no matrix %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(infoOf(e)); err != nil {
		s.logf("info encode: %v", err)
	}
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	e, ok := s.reg.remove(r.PathValue("id"))
	if !ok {
		s.httpError(w, http.StatusNotFound, fmt.Errorf("server: no matrix %q", r.PathValue("id")))
		return
	}
	e.co.stop(errEvicted)
	e.runner.Close()
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		return
	}
	if _, err := io.WriteString(w, "ok\n"); err != nil {
		s.logf("healthz write: %v", err)
	}
}

// ---- multiply ----

// MultiplyRequest is the JSON body of POST /matrices/{id}/multiply.
// The server reads it with the strict codec in wire.go: exactly this
// one member, no trailing data, and x as long as the matrix is wide.
// json.Marshal of a MultiplyRequest with finite x always qualifies.
type MultiplyRequest struct {
	X []float64 `json:"x"`
}

// MultiplyResponse is its answer, byte for byte what json.Encoder
// writes for it.
type MultiplyResponse struct {
	Y []float64 `json:"y"`
}

// requestDeadline resolves the effective deadline: the X-Deadline-Ms
// header when present, capped by the configured default (which is also
// the maximum — a client cannot hold queue slots longer than the
// server is willing to).
func (s *Server) requestDeadline(r *http.Request) time.Duration {
	d := s.cfg.DefaultDeadline
	if h := r.Header.Get("X-Deadline-Ms"); h != "" {
		ms, err := strconv.ParseInt(h, 10, 64)
		if err == nil && ms > 0 && time.Duration(ms)*time.Millisecond < d {
			d = time.Duration(ms) * time.Millisecond
		}
	}
	return d
}

// failMultiply answers a failed multiply request and emits one
// structured log record for it: the request id, matrix, client, HTTP
// status, error, and span timings (elapsed since handler entry, plus
// the admission span when the request got that far; admissionNs < 0
// means it never was admitted).
func (s *Server) failMultiply(r *http.Request, w http.ResponseWriter, reqID int64, matrix string, status int, err error, start time.Time, admissionNs int64) {
	s.httpError(w, status, err)
	l := s.cfg.Logger
	if l == nil {
		return
	}
	attrs := []slog.Attr{
		slog.Int64("req_id", reqID),
		slog.String("matrix", matrix),
		slog.String("client", clientID(r)),
		slog.Int("status", status),
		slog.String("error", err.Error()),
		slog.Int64("elapsed_ns", int64(time.Since(start))),
	}
	if admissionNs >= 0 {
		attrs = append(attrs, slog.Int64("admission_ns", admissionNs))
	}
	l.LogAttrs(r.Context(), slog.LevelWarn, "multiply failed", attrs...)
}

func (s *Server) handleMultiply(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	reqID := s.reqSeq.Add(1)
	id := r.PathValue("id")
	s.metrics.RequestsTotal.Add(1)
	if s.draining.Load() {
		s.metrics.Rejected503.Add(1)
		s.failMultiply(r, w, reqID, id, http.StatusServiceUnavailable, errDraining, start, -1)
		return
	}
	e, ok := s.reg.get(id)
	if !ok {
		s.failMultiply(r, w, reqID, id, http.StatusNotFound,
			fmt.Errorf("server: no matrix %q", id), start, -1)
		return
	}

	// Fairness: cap this client's in-flight requests before anything
	// is parsed or queued.
	cid := clientID(r)
	if !s.acquireClient(cid) {
		s.metrics.Shed.Add(1)
		e.shed.Add(1)
		s.failMultiply(r, w, reqID, id, http.StatusTooManyRequests,
			core.Usagef("server: client %q at in-flight cap", cid), start, -1)
		return
	}
	defer s.releaseClient(cid)

	// An n-vector of JSON floats is comfortably under 32 bytes/element.
	maxBody := int64(e.format.Cols())*32 + 4096
	body, err := readBody(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		status := http.StatusBadRequest
		// readBody passes Read errors through unwrapped, and
		// MaxBytesReader's contract returns a bare *MaxBytesError.
		if _, ok := err.(*http.MaxBytesError); ok {
			status = http.StatusRequestEntityTooLarge
		}
		s.failMultiply(r, w, reqID, id, status, fmt.Errorf("server: reading request: %w", err), start, -1)
		return
	}
	x, bad := parseX(body.Bytes(), e.format.Cols())
	wireBufs.Put(body)
	if bad.what != "" {
		s.failMultiply(r, w, reqID, id, http.StatusBadRequest, bad, start, -1)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.requestDeadline(r))
	defer cancel()
	mr := &mulReq{ctx: ctx, x: x, done: make(chan mulRes, 1)}
	if err := e.co.enqueue(mr); err != nil {
		status := statusFor(err)
		switch status {
		case http.StatusTooManyRequests:
			s.metrics.Shed.Add(1)
			e.shed.Add(1)
		case http.StatusServiceUnavailable:
			s.metrics.Rejected503.Add(1)
		}
		s.failMultiply(r, w, reqID, id, status, err, start, -1)
		return
	}
	// The request is admitted: admission and total record for exactly
	// this set — every path below, success or failure, exits through
	// the deferred total record, so admission <= total holds per
	// request and in aggregate.
	admissionNs := int64(time.Since(start))
	e.spans.admission.Record(admissionNs)
	defer e.spans.total.RecordSince(start)

	select {
	case res := <-mr.done:
		if res.err != nil {
			status := statusFor(res.err)
			switch status {
			case http.StatusGatewayTimeout:
				s.metrics.DeadlineExceeded.Add(1)
			case http.StatusServiceUnavailable:
				s.metrics.Rejected503.Add(1)
			default:
				s.metrics.Failures.Add(1)
			}
			s.failMultiply(r, w, reqID, id, status, res.err, start, admissionNs)
			return
		}
		// The response is formatted before any header is written, so a
		// y that JSON cannot carry still gets its own status. The write
		// span covers formatting and sending: the slice of request
		// latency spent pushing bytes to the client, not computing.
		wstart := time.Now()
		out := wireBufs.Get().(*bytes.Buffer)
		defer wireBufs.Put(out)
		out.Reset()
		b, row := appendY(out.AvailableBuffer(), res.y)
		if row >= 0 {
			s.metrics.Failures.Add(1)
			s.failMultiply(r, w, reqID, id, http.StatusUnprocessableEntity,
				fmt.Errorf("server: y[%d] is not finite, and JSON has no form for it", row), start, admissionNs)
			return
		}
		// b sits in out's spare capacity when it fit there; Write keeps
		// any growth for the next response.
		out.Write(b)
		s.metrics.Served.Add(1)
		e.served.Add(1)
		s.writeVector(w, out.Bytes())
		e.spans.write.RecordSince(wstart)
	case <-ctx.Done():
		// Deadline or client disconnect while queued or executing. The
		// result channel is buffered, so a late delivery parks there
		// and is collected with the request — no goroutine waits.
		s.metrics.DeadlineExceeded.Add(1)
		s.failMultiply(r, w, reqID, id, http.StatusGatewayTimeout, ctx.Err(), start, admissionNs)
	}
}

// writeVector sends a formatted response body with one Write and a
// Content-Length, under a slow-consumer write deadline: a client that
// stops reading cannot pin the handler past WriteTimeout.
func (s *Server) writeVector(w http.ResponseWriter, body []byte) {
	rc := http.NewResponseController(w)
	if err := rc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout)); err != nil {
		// Recorders and exotic transports don't support deadlines; the
		// response still goes out, just unbounded.
		s.logf("set write deadline: %v", err)
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	if _, err := w.Write(body); err != nil {
		s.logf("result write: %v", err)
	}
}
