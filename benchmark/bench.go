package main

import (
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"time"
)

// scale holds every input size. The full scale is what BENCHMARK.json
// measures; sizes are constants and are never derived from the machine
// or from -seconds. The smoke scale exists for bench_test.go only.
type scale struct {
	Name         string
	Stencil3D    int     // stencil-mt: matgen.Stencil3D(n)
	ScatterRows  int     // scatter-mt: matgen.SkewedRows(n, 8, row 0, 0.2)
	SolveGrid    int     // matgen.Stencil2D(n): scatter-mt's SPD matrix for CG and the autotuner, and serve-wire's text-ingest matrix
	WireGrid     int     // serve-wire hosted matrix: matgen.Stencil2D(n)
	KernelN      int     // serve-kernel hosted matrix: matgen.RandomUniform(n, n, KernelPerRow)
	KernelPerRow int     //
	WireRate     float64 // serve-wire open-loop schedule, requests per second
	KernelRate   float64 // serve-kernel open-loop schedule, requests per second
	Warmup       int     // discarded warm-up requests before the closed loop
}

var (
	fullScale = scale{Name: "full", Stencil3D: 128, ScatterRows: 1_500_000, SolveGrid: 512,
		WireGrid: 64, KernelN: 8192, KernelPerRow: 1024, WireRate: 200, KernelRate: 40, Warmup: 50}
	smokeScale = scale{Name: "smoke", Stencil3D: 16, ScatterRows: 4000, SolveGrid: 24,
		WireGrid: 12, KernelN: 256, KernelPerRow: 32, WireRate: 100, KernelRate: 100, Warmup: 4}
)

// The one constants table for durations and repetitions. Each timed
// phase gets a share of -seconds; if the contract's cap on total time
// tightens, change these, never the matrices.
const (
	defaultSeconds = 30

	shareKernels = 0.27 // the interleaved rounds: spmv_csr_serial_ms, spmv_csr_ms, spmv_csrdu_ms, spmv_csrvi_ms, spmm8_csrdu_ms
	shareCG      = 0.20 // cg_solve_s: at least one solve, more while the share lasts
	shareClosed  = 0.17 // serve_rps
	shareOpen    = 0.36 // req_p50_ms
	shareAuto    = 0.05 // autotune.spmv_auto_ms, traced run only
	shareExtra   = 0.03 // each traced-only kernel phase (serial csr-du/csr-vi, nnz, steal, spmm8-nnz)

	itersSerial   = 4  // multiplies per sample, no executor; at most, see sampleTarget
	itersParallel = 8  // RunIters iterations per sample; at most
	itersSpMM     = 2  // RunBatchIters panels per sample; at most
	panelWidth    = 8  // SpMM panel width
	warmupIters   = 3  // discarded iterations per executor before timing
	minSamples    = 3  // a phase never reports fewer samples
	maxSamples    = 30 // nor more
	maxSolves     = 5  // CG solves per run
	uploads       = 7  // timed uploads (server.upload_s), matrix deleted between
	bodyPool      = 8  // distinct pre-marshalled request vectors per server workload
	cgTolerance   = 1e-6
	cgMaxIter     = 5000
	probeBudget   = 2 * time.Second // roofline.Probe, traced run only

	// A sample is cut to about this long (fewer iterations, never fewer
	// than one): a 40-70 ms multiply at 8 iterations a sample leaves 4
	// samples in a phase, and one disturbed sample then moves the median.
	sampleTarget = 100 * time.Millisecond
	// serve_rps is the median over slices of the closed loop this long,
	// so a stall shorter than half the phase does not move it.
	closedSlice = 500 * time.Millisecond

	serverMemoryBudget   = 1 << 30   // raised from the 256 MiB default so nothing is evicted
	serverMaxUploadBytes = 256 << 20 // raised from the 64 MiB default for the 75.6 MB matfile
)

type metricDef struct{ Name, Unit string }

// endToEnd lists the metrics of the untraced run, perLayer those of the
// traced run. bench_test.go holds both against BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"spmv_csr_serial_ms", "ms"},
	{"spmv_csr_ms", "ms"},
	{"spmv_csrdu_ms", "ms"},
	{"spmv_csrvi_ms", "ms"},
	{"spmm8_csrdu_ms", "ms"},
	{"cg_solve_s", "s"},
	{"serve_rps", "1/s"},
	{"req_p50_ms", "ms"},
}

var perLayer = []metricDef{
	{"matgen.gen_s", "s"},
	{"formats.build_csr_s", "s"},
	{"formats.build_csrdu_s", "s"},
	{"formats.build_csrvi_s", "s"},
	{"core.verify_s", "s"},
	{"parallel.new_s", "s"},
	{"autotune.tune_s", "s"},
	{"autotune.build_s", "s"},
	{"autotune.spmv_auto_ms", "ms"},
	{"autotune.regret", "ratio"},
	{"csr.serial_ns_per_nnz", "ns"},
	{"csrdu.serial_ns_per_nnz", "ns"},
	{"csrvi.serial_ns_per_nnz", "ns"},
	{"csrdu.spmm8_ns_per_nnz_vec", "ns"},
	{"csr.bytes_per_spmv", "B"},
	{"csrdu.bytes_per_spmv", "B"},
	{"csrvi.bytes_per_spmv", "B"},
	{"csrdu.size_ratio", "ratio"},
	{"csrvi.size_ratio", "ratio"},
	{"csr.gbps", "GB/s"},
	{"csrdu.gbps", "GB/s"},
	{"csrvi.gbps", "GB/s"},
	{"roofline.triad_gbps_t1", "GB/s"},
	{"roofline.triad_gbps_tN", "GB/s"},
	{"csr.pct_roof", "%"},
	{"csrdu.pct_roof", "%"},
	{"csrvi.pct_roof", "%"},
	{"host.ws_over_llc", "ratio"},
	{"parallel.dispatch_us", "us"},
	{"parallel.speedup_csr", "ratio"},
	{"parallel.speedup_csrdu", "ratio"},
	{"parallel.speedup_csrvi", "ratio"},
	{"parallel.imbalance_csr", "ratio"},
	{"parallel.nnz_ms", "ms"},
	{"parallel.steal_ms", "ms"},
	{"parallel.spmm8_nnz_ms", "ms"},
	{"solver.iterations", "count"},
	{"solver.ms_per_iter", "ms"},
	{"solver.spmv_share", "ratio"},
	{"vec.ms_per_iter", "ms"},
	{"solver.true_residual", "ratio"},
	{"server.admission_p50_ms", "ms"},
	{"server.queue_p50_ms", "ms"},
	{"server.coalesce_p50_ms", "ms"},
	{"server.execute_p50_ms", "ms"},
	{"server.write_p50_ms", "ms"},
	{"server.total_p50_ms", "ms"},
	{"server.total_p90_ms", "ms"},
	{"server.unaccounted_p50_ms", "ms"},
	{"server.closed_execute_p50_ms", "ms"},
	{"server.closed_total_p50_ms", "ms"},
	{"server.coalesce_width_mean", "ratio"},
	{"server.shed", "count"},
	{"server.deadline_exceeded", "count"},
	{"client.decode_ms", "ms"},
	{"client.wire_ms", "ms"},
	{"client.req_bytes", "B"},
	{"client.resp_bytes", "B"},
	{"client.lateness_p90_ms", "ms"},
	{"client.req_p90_ms", "ms"},
	{"client.req_p99_ms", "ms"},
	{"server.upload_s", "s"},
	{"mmio.parse_s", "s"},
	{"matfile.write_s", "s"},
	{"matfile.read_s", "s"},
	{"server.ingest_other_s", "s"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.allocs_per_req", "count"},
	{"runtime.peak_rss_mb", "MB"},
	{"trace.overhead_pct", "%"},
}

// value is one reported metric. P90 and N are 0 for a metric that is a
// single reading or a derived number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	P90   float64 `json:"p90,omitempty"`
	N     int     `json:"n,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// run is the state of one workload run. Everything a part measures
// lands here; main turns it into the tables and the result line.
type run struct {
	workload string
	T        int
	seed     int64
	seconds  float64
	sc       scale
	host     hostInfo
	tr       *tracer // nil in the untraced run
	log      io.Writer

	attempted atomic.Int64
	failed    atomic.Int64
	setup     time.Duration
	metrics   map[string]value
	ws        map[string]int64 // working-set bytes per part
}

func (r *run) traced() bool { return r.tr != nil }

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.log, "  [%s] "+format+"\n", append([]any{r.workload}, args...)...)
}

// share converts a share of -seconds into a phase budget.
func (r *run) share(s float64) time.Duration {
	return time.Duration(s * r.seconds * float64(time.Second))
}

// layer runs one call into a layer, records its span in the traced
// run, and returns how long it took.
func (r *run) layer(parent int64, name string, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	r.tr.add(parent, name, 0, start, end)
	return end.Sub(start)
}

// call is layer for a call that can fail, with its duration added to a
// per-layer metric (several calls may feed one metric).
func (r *run) call(parent int64, span, metric string, f func() error) error {
	var err error
	d := r.layer(parent, span, func() { err = f() })
	r.add(metric, d.Seconds())
	return err
}

// op counts n attempted operations, all failed when ok is false.
func (r *run) op(n int, ok bool) {
	r.attempted.Add(int64(n))
	if !ok {
		r.failed.Add(int64(n))
	}
}

func (r *run) set(name string, v float64) { r.setNote(name, v, "") }

func (r *run) setNote(name string, v float64, note string) {
	r.metrics[name] = value{Value: v, Unit: unitOf(name), Note: note}
}

func (r *run) setSummary(name string, s summary) {
	r.metrics[name] = value{Value: s.Median, Unit: unitOf(name), P90: s.P90, N: s.N}
}

// add accumulates into a metric that several calls contribute to.
func (r *run) add(name string, v float64) {
	m := r.metrics[name]
	m.Value += v
	m.Unit = unitOf(name)
	r.metrics[name] = m
}

func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	panic("benchmark: metric " + name + " is not in the metric tables")
}

// settle is the one place phases are separated: a forced collection, so
// garbage from the previous phase is not collected inside the next.
func settle() { runtime.GC() }
