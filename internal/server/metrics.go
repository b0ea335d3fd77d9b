package server

import (
	"encoding/json"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"

	"spmv/internal/obs"
)

// RuntimeHealth is the Go runtime's vital signs, collected only when a
// snapshot is taken (metrics endpoints) — never on the request path,
// so the allocation gate on the handlers is unaffected.
type RuntimeHealth struct {
	// Goroutines is the live goroutine count — a leak in the pipeline
	// (coalescer loops, executor workers) shows up here first.
	Goroutines int `json:"goroutines"`
	// GCPauseTotalNs is the cumulative stop-the-world pause time; its
	// growth rate says how much latency the collector is injecting.
	GCPauseTotalNs uint64 `json:"gc_pause_total_ns"`
	// NumGC is the completed collection count.
	NumGC uint32 `json:"num_gc"`
	// HeapInuseBytes is the heap memory in active spans; with the
	// registry's budget it bounds the process footprint.
	HeapInuseBytes uint64 `json:"heap_inuse_bytes"`
	// HeapAllocBytes is the live allocated heap.
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
}

func readRuntimeHealth() RuntimeHealth {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return RuntimeHealth{
		Goroutines:     runtime.NumGoroutine(),
		GCPauseTotalNs: ms.PauseTotalNs,
		NumGC:          ms.NumGC,
		HeapInuseBytes: ms.HeapInuse,
		HeapAllocBytes: ms.HeapAlloc,
	}
}

// Metrics is the server's live counter set, exposed on /metrics and —
// when the host process publishes it — through expvar. All fields are
// atomics: request handlers, the coalescer loops, and the metrics
// endpoint touch them concurrently.
type Metrics struct {
	// Registry traffic.
	UploadsTotal    atomic.Int64 // upload requests admitted to ingest
	UploadsRejected atomic.Int64 // corrupt/oversized/unsupported uploads
	Builds          atomic.Int64 // matrices actually built
	BuildCacheHits  atomic.Int64 // uploads answered by the content cache
	Evictions       atomic.Int64 // LRU evictions under the memory budget

	// Request pipeline.
	RequestsTotal    atomic.Int64 // multiply requests received
	Served           atomic.Int64 // multiply requests answered 200
	Shed             atomic.Int64 // 429s: queue full or per-client cap
	Rejected503      atomic.Int64 // 503s: draining or evicted mid-queue
	DeadlineExceeded atomic.Int64 // 504s: request deadline or disconnect
	Failures         atomic.Int64 // 500s: execution errors
	PanicsRecovered  atomic.Int64 // panics contained by the degradation path

	// widths[k] counts coalesced batches of width k; widths[0] is
	// unused. Sized at construction to the coalescer's MaxBatch.
	widths []atomic.Int64
}

func newMetrics(maxBatch int) *Metrics {
	return &Metrics{widths: make([]atomic.Int64, maxBatch+1)}
}

// BatchWidths returns the coalesced-batch width histogram: index k
// holds the number of executed panels of width k (index 0 is unused).
func (m *Metrics) BatchWidths() []int64 {
	out := make([]int64, len(m.widths))
	for i := range m.widths {
		out[i] = m.widths[i].Load()
	}
	return out
}

func (m *Metrics) recordWidth(k int) {
	if k >= 1 && k < len(m.widths) {
		m.widths[k].Add(1)
	}
}

// MatrixMetrics is the per-matrix slice of a metrics snapshot.
type MatrixMetrics struct {
	Format     string       `json:"format"`
	Rows       int          `json:"rows"`
	Cols       int          `json:"cols"`
	NNZ        int          `json:"nnz"`
	SizeBytes  int64        `json:"size_bytes"`
	QueueDepth int          `json:"queue_depth"`
	Served     int64        `json:"served"`
	Shed       int64        `json:"shed"`
	Obs        obs.Snapshot `json:"obs"`
	// Spans summarizes the request-lifecycle latency histograms
	// (admission, queue, coalesce, execute, write, total), keyed by
	// span name. All values are nanoseconds.
	Spans map[string]obs.HistogramSnapshot `json:"spans"`
	// Tune summarizes the autotuner's decision for format=auto uploads;
	// absent for explicitly-chosen formats.
	Tune *TuneDecision `json:"tune,omitempty"`
}

// TuneDecision is the compact /metrics view of an autotune report: the
// chosen spec and the headline numbers, not the full candidate trace
// (spmvbench -auto emits that).
type TuneDecision struct {
	Format     string `json:"format"`
	Partition  string `json:"partition,omitempty"`
	PredBytes  int64  `json:"pred_bytes"`
	Candidates int    `json:"candidates"`
	PriorsUsed bool   `json:"priors_used,omitempty"`
	Probed     bool   `json:"probed,omitempty"`
}

// MetricsSnapshot is the JSON document served on /metrics.
type MetricsSnapshot struct {
	UploadsTotal     int64 `json:"uploads_total"`
	UploadsRejected  int64 `json:"uploads_rejected"`
	Builds           int64 `json:"builds"`
	BuildCacheHits   int64 `json:"build_cache_hits"`
	Evictions        int64 `json:"evictions"`
	RequestsTotal    int64 `json:"requests_total"`
	Served           int64 `json:"served"`
	Shed             int64 `json:"shed"`
	Rejected503      int64 `json:"rejected_503"`
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	Failures         int64 `json:"failures"`
	PanicsRecovered  int64 `json:"panics_recovered"`

	RegistryEntries int   `json:"registry_entries"`
	RegistryBytes   int64 `json:"registry_bytes"`

	// Runtime is the Go runtime's health at snapshot time.
	Runtime RuntimeHealth `json:"runtime"`

	// CoalesceWidths maps batch width (as a decimal string, for JSON
	// object keys) to the number of panels executed at that width.
	CoalesceWidths map[string]int64 `json:"coalesce_widths"`

	Matrices map[string]MatrixMetrics `json:"matrices"`
}

// Snapshot assembles the full metrics document.
func (s *Server) Snapshot() MetricsSnapshot {
	m := s.metrics
	snap := MetricsSnapshot{
		UploadsTotal:     m.UploadsTotal.Load(),
		UploadsRejected:  m.UploadsRejected.Load(),
		Builds:           m.Builds.Load(),
		BuildCacheHits:   m.BuildCacheHits.Load(),
		Evictions:        m.Evictions.Load(),
		RequestsTotal:    m.RequestsTotal.Load(),
		Served:           m.Served.Load(),
		Shed:             m.Shed.Load(),
		Rejected503:      m.Rejected503.Load(),
		DeadlineExceeded: m.DeadlineExceeded.Load(),
		Failures:         m.Failures.Load(),
		PanicsRecovered:  m.PanicsRecovered.Load(),
		CoalesceWidths:   map[string]int64{},
		Matrices:         map[string]MatrixMetrics{},
	}
	for k := 1; k < len(m.widths); k++ {
		if n := m.widths[k].Load(); n > 0 {
			snap.CoalesceWidths[strconv.Itoa(k)] = n
		}
	}
	entries, bytes := s.reg.stats()
	snap.RegistryEntries = entries
	snap.RegistryBytes = bytes
	snap.Runtime = readRuntimeHealth()
	for _, e := range s.reg.snapshot() {
		mm := MatrixMetrics{
			Format:     e.format.Name(),
			Rows:       e.format.Rows(),
			Cols:       e.format.Cols(),
			NNZ:        e.format.NNZ(),
			SizeBytes:  e.size,
			QueueDepth: e.co.depth(),
			Served:     e.served.Load(),
			Shed:       e.shed.Load(),
			Obs:        e.rec.Snapshot(),
			Spans:      e.spans.snapshot(),
		}
		if t := e.tune; t != nil {
			mm.Tune = &TuneDecision{
				Format:     t.Chosen.Name(),
				Partition:  t.Chosen.Partition,
				PredBytes:  t.ChosenPredBytes,
				Candidates: len(t.Candidates),
				PriorsUsed: t.PriorsUsed,
				Probed:     t.Probed,
			}
		}
		snap.Matrices[e.id] = mm
	}
	return snap
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s.Snapshot()); err != nil {
		// The header is already out; nothing useful can be written.
		s.logf("metrics encode: %v", err)
	}
}
