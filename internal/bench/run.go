package bench

import (
	"fmt"
	"io"
	"math"
	"time"

	"spmv/internal/core"
	"spmv/internal/csrdu"
	"spmv/internal/formats"
	"spmv/internal/matgen"
	"spmv/internal/memsim"
	"spmv/internal/obs"
	"spmv/internal/parallel"
	"spmv/internal/roofline"
	"spmv/internal/simtrace"
	"spmv/internal/stats"
)

// Config controls an experiment run.
type Config struct {
	// Machine is the simulated platform (simulation mode only).
	Machine memsim.Machine
	// Scale multiplies matrix sizes; 1.0 reproduces paper-scale working
	// sets, smaller values speed up tests.
	Scale float64
	// WarmIters is the number of steady-state iterations measured
	// (after one cold iteration, mirroring the paper's warm-cache
	// 128-iteration loop). Both modes honor it exactly: simulation
	// measures WarmIters warm iterations, and native mode times
	// WarmIters iterations after a warmUpIters warm-up. (Earlier
	// versions silently raised the native measured count to at least 3,
	// so native and simulated seconds-per-SpMV averaged over different
	// iteration counts.)
	WarmIters int
	// Threads are the thread counts exercised (paper: 1, 2, 4, 8).
	Threads []int
	// Formats selects compressed formats to run beyond CSR. Valid:
	// "csr-du", "csr-vi", "csr-du-vi", "dcsr", "csr-du-rle".
	Formats []string
	// Native switches from simulation to wall-clock goroutine timing.
	Native bool
	// Verify structurally checks every built format (core.Verify) before
	// it is timed, failing the run on corruption.
	Verify bool
	// Verbose, if non-nil, receives progress lines.
	Verbose io.Writer
	// Metrics enables the observability layer: native-mode runs attach
	// an obs.Recorder to every executor and fill MatrixRuns.Metrics
	// with per-chunk timings, measured load imbalance and effective
	// bandwidth (sim mode fills the timing-derived fields only).
	Metrics bool
	// Recorder, if non-nil, additionally receives every native run's
	// telemetry across the whole collection — the live sink a debug
	// endpoint (expvar) reads while the benchmark is running.
	Recorder *obs.Recorder
	// Collector, if non-nil, is a further telemetry sink teed into every
	// native run — e.g. a prof.Series recording the per-iteration
	// timeline of the measured loop.
	Collector obs.Collector
	// Samples repeats each native cell measurement this many times and
	// stores the individual timings in MatrixRuns.SecsSamples, giving
	// the regression archive a spread to test against. Values below 2
	// measure once and record no samples. Simulation mode ignores it —
	// the simulator is deterministic, repeats would be identical.
	Samples int
	// Partition selects the native execution scheme ("row" or "nnz");
	// empty means row. Formats that do not support the
	// requested scheme (nnz is CSR-only) fall back to row partitioning
	// so mixed-format sweeps still complete.
	Partition string
	// Roofline, if non-nil, anchors every measured cell's bandwidth to
	// the host's roofline: RunMetrics gains CeilingGBps and PctRoofline
	// (GBps / ceiling at the cell's thread count), and report tables can
	// print the %roof column. Nil leaves the roofline fields zero.
	Roofline *roofline.Model
}

// DefaultConfig returns the paper-reproduction configuration.
func DefaultConfig() Config {
	return Config{
		Machine:   memsim.Clovertown(),
		Scale:     1.0,
		WarmIters: 2,
		Threads:   []int{1, 2, 4, 8},
		Formats:   []string{"csr-du", "csr-vi"},
	}
}

// MatrixRuns holds all measurements for one matrix: steady-state
// seconds per SpMV, per format and thread count.
type MatrixRuns struct {
	Name  string
	Rows  int
	Cols  int
	NNZ   int
	WS    int64 // CSR working set (§II-B)
	TTU   float64
	Class string // "S" or "L" by ws

	// Secs[format][threads] is the steady-state seconds per SpMV with
	// close placement. CSRSpread2 is the 2-thread separate-L2 run
	// (simulation mode only; 0 in native mode).
	Secs       map[string]map[int]float64
	CSRSpread2 float64

	// SizeRatio[format] is SizeBytes(format)/SizeBytes(csr).
	SizeRatio map[string]float64

	// Metrics[format][threads] is the observability record of the run,
	// populated only when Config.Metrics is set.
	Metrics map[string]map[int]*RunMetrics

	// SecsSamples[format][threads] holds the individual repeated
	// timings behind Secs when Config.Samples >= 2 (native mode only);
	// Secs then stores their mean.
	SecsSamples map[string]map[int][]float64
}

// Sec returns the measured seconds per SpMV for one cell and whether
// that cell was actually measured. A missing format or thread entry —
// or a zero timing, which a real measurement cannot produce — reports
// ok = false.
func (r *MatrixRuns) Sec(format string, threads int) (secs float64, ok bool) {
	secs, ok = r.Secs[format][threads]
	return secs, ok && !core.IsZero(secs)
}

// SpeedupOK returns serial-CSR time / the given configuration's time,
// with ok = false when either cell was never measured.
func (r *MatrixRuns) SpeedupOK(format string, threads int) (float64, bool) {
	base, ok1 := r.Sec("csr", 1)
	t, ok2 := r.Sec(format, threads)
	if !ok1 || !ok2 {
		return math.NaN(), false
	}
	return base / t, true
}

// Speedup returns serial-CSR time / the given configuration's time.
// A cell that was never measured yields NaN, never a fabricated 0 —
// nil-map lookups used to surface here as zero "speedups" in report
// tables. Printers flag NaN cells as missing; use SpeedupOK to branch.
func (r *MatrixRuns) Speedup(format string, threads int) float64 {
	s, _ := r.SpeedupOK(format, threads)
	return s
}

// RelSpeedupOK returns CSR time / format time at equal thread count,
// with ok = false when either cell was never measured.
func (r *MatrixRuns) RelSpeedupOK(format string, threads int) (float64, bool) {
	base, ok1 := r.Sec("csr", threads)
	t, ok2 := r.Sec(format, threads)
	if !ok1 || !ok2 {
		return math.NaN(), false
	}
	return base / t, true
}

// RelSpeedup returns CSR time / format time at equal thread count
// (the paper's Tables III/IV metric). Unmeasured cells yield NaN, as
// with Speedup.
func (r *MatrixRuns) RelSpeedup(format string, threads int) float64 {
	s, _ := r.RelSpeedupOK(format, threads)
	return s
}

// buildFormat constructs a named format from a COO via the registry.
// "csr-du-rle", the name a csr-du matrix with RLE units carries, is not
// a registry name; it builds csr-du with Options.RLE.
func buildFormat(name string, c *core.COO) (core.Format, error) {
	if name == "csr-du-rle" {
		return formats.BuildOpts("csr-du", c, csrdu.Options{RLE: true})
	}
	return formats.Build(name, c)
}

// Collect generates every suite matrix at cfg.Scale and measures CSR
// plus each requested format at each thread count. Matrices whose
// working set falls below the (scaled) admission threshold are skipped,
// mirroring the paper's ws >= 3MB rejection.
func Collect(cfg Config) ([]*MatrixRuns, error) {
	if cfg.WarmIters <= 0 {
		cfg.WarmIters = 2
	}
	if len(cfg.Threads) == 0 {
		cfg.Threads = []int{1, 2, 4, 8}
	}
	minWS := int64(float64(MinWS) * cfg.Scale)
	largeWS := int64(float64(LargeWS) * cfg.Scale)

	var out []*MatrixRuns
	for _, spec := range Suite() {
		c := spec.Gen(cfg.Scale)
		ws := core.WorkingSet(c.Rows(), c.Cols(), c.Len())
		if ws < minWS {
			continue
		}
		r := &MatrixRuns{
			Name: spec.Name, Rows: c.Rows(), Cols: c.Cols(), NNZ: c.Len(),
			WS: ws, TTU: matgen.TTU(c),
			Secs:      map[string]map[int]float64{},
			SizeRatio: map[string]float64{},
		}
		if cfg.Metrics {
			r.Metrics = map[string]map[int]*RunMetrics{}
		}
		if ws >= largeWS {
			r.Class = "L"
		} else {
			r.Class = "S"
		}
		base, err := buildFormat("csr", c)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", spec.Name, err)
		}
		if cfg.Verify {
			if err := core.Verify(base); err != nil {
				return nil, fmt.Errorf("bench: %s/csr: verify: %w", spec.Name, err)
			}
		}
		if err := measureFormat(cfg, r, base, true); err != nil {
			return nil, fmt.Errorf("bench: %s/csr: %w", spec.Name, err)
		}
		for _, name := range cfg.Formats {
			f, err := buildFormat(name, c)
			if err != nil {
				return nil, fmt.Errorf("bench: %s/%s: %w", spec.Name, name, err)
			}
			if cfg.Verify {
				if err := core.Verify(f); err != nil {
					return nil, fmt.Errorf("bench: %s/%s: verify: %w", spec.Name, name, err)
				}
			}
			r.SizeRatio[name] = float64(f.SizeBytes()) / float64(base.SizeBytes())
			if err := measureFormat(cfg, r, f, false); err != nil {
				return nil, fmt.Errorf("bench: %s/%s: %w", spec.Name, name, err)
			}
		}
		if cfg.Verbose != nil {
			if _, err := fmt.Fprintf(cfg.Verbose, "%-16s class=%s nnz=%-9d ws=%5.1fMB ttu=%8.1f csr1=%.4gs\n",
				r.Name, r.Class, r.NNZ, float64(r.WS)/(1<<20), r.TTU, r.Secs["csr"][1]); err != nil {
				return nil, fmt.Errorf("bench: verbose output: %w", err)
			}
		}
		out = append(out, r)
	}
	return out, nil
}

// measureFormat fills r.Secs[f.Name()] for every thread count, plus the
// spread-placement 2-thread run for CSR in simulation mode. With
// Config.Metrics set it also fills r.Metrics[f.Name()].
func measureFormat(cfg Config, r *MatrixRuns, f core.Format, isCSR bool) error {
	secs := map[int]float64{}
	for _, th := range cfg.Threads {
		var rec *obs.Recorder
		if cfg.Metrics && cfg.Native {
			rec = obs.NewRecorder()
		}
		s, err := measure(cfg, f, th, nil, rec)
		if err != nil {
			return err
		}
		// Repeated sampling (native only): keep every timing so the
		// archive can report a spread, and let the mean stand in for the
		// single measurement everywhere else.
		if cfg.Native && cfg.Samples >= 2 {
			samples := make([]float64, 0, cfg.Samples)
			samples = append(samples, s)
			for n := 1; n < cfg.Samples; n++ {
				si, err := measure(cfg, f, th, nil, nil)
				if err != nil {
					return err
				}
				samples = append(samples, si)
			}
			s, _ = stats.MeanStddev(samples)
			if r.SecsSamples == nil {
				r.SecsSamples = map[string]map[int][]float64{}
			}
			if r.SecsSamples[f.Name()] == nil {
				r.SecsSamples[f.Name()] = map[int][]float64{}
			}
			r.SecsSamples[f.Name()][th] = samples
		}
		secs[th] = s
		if cfg.Metrics {
			if r.Metrics[f.Name()] == nil {
				r.Metrics[f.Name()] = map[int]*RunMetrics{}
			}
			r.Metrics[f.Name()][th] = newRunMetrics(cfg, f, th, s, rec)
		}
	}
	r.Secs[f.Name()] = secs
	if isCSR && !cfg.Native {
		s, err := measure(cfg, f, 2, memsim.SpreadPlacement(2, cfg.Machine.L2SharedBy), nil)
		if err != nil {
			return err
		}
		r.CSRSpread2 = s
	}
	return nil
}

// measure returns steady-state seconds per SpMV. rec, when non-nil, is
// attached to the native executor to capture per-chunk telemetry.
func measure(cfg Config, f core.Format, threads int, placement memsim.Placement, rec *obs.Recorder) (float64, error) {
	if cfg.Native {
		return measureNative(cfg, f, threads, rec)
	}
	// Simulated: subtract the cold iteration so only warm, steady-state
	// iterations count (the paper measures 128 warm iterations).
	traces, err := simtrace.Collect(f, threads)
	if err != nil {
		return 0, err
	}
	if placement == nil {
		placement = memsim.ClosePlacement(len(traces))
	}
	if len(placement) > len(traces) {
		placement = placement[:len(traces)]
	}
	cold, err := memsim.Simulate(cfg.Machine, traces, placement, 1)
	if err != nil {
		return 0, err
	}
	full, err := memsim.Simulate(cfg.Machine, traces, placement, 1+cfg.WarmIters)
	if err != nil {
		return 0, err
	}
	warm := float64(full.Cycles-cold.Cycles) / float64(cfg.WarmIters)
	return warm / cfg.Machine.FreqHz, nil
}

// collectorOrNil converts a possibly-nil *Recorder to a Collector
// without producing the non-nil-interface-around-nil-pointer trap.
func collectorOrNil(r *obs.Recorder) obs.Collector {
	if r == nil {
		return nil
	}
	return r
}

// warmUpIters is the fixed, untimed native warm-up (cache fill, page
// faults, goroutine scheduling settle) that precedes the measured loop
// — the native analogue of the simulator's one cold iteration.
const warmUpIters = 3

// measureNative times RunIters with goroutines on the host. The timed
// loop runs exactly cfg.WarmIters iterations, matching the iteration
// count the simulated path averages over; it used to silently raise
// the count to at least 3, making native and simulated "seconds per
// SpMV" averages incomparable at small WarmIters. rec, when non-nil,
// observes only the measured iterations, not the warm-up.
func measureNative(cfg Config, f core.Format, threads int, rec *obs.Recorder) (float64, error) {
	opts := parallel.ExecOptions{Threads: threads, Partition: cfg.Partition}
	if opts.Partition == "nnz" {
		if _, ok := f.(core.NNZSplitter); !ok {
			opts.Partition = "" // no nnz splitting for this format: row
		}
	}
	e, err := parallel.New(f, opts)
	if err != nil {
		return 0, err
	}
	defer e.Close()
	x := make([]float64, f.Cols())
	y := make([]float64, f.Rows())
	for i := range x {
		x[i] = float64(i%9) - 4
	}
	if err := e.RunIters(warmUpIters, y, x); err != nil {
		return 0, err
	}
	if c := obs.Tee(collectorOrNil(rec), collectorOrNil(cfg.Recorder), cfg.Collector); c != nil {
		e.SetCollector(c)
	}
	start := time.Now()
	if err := e.RunIters(cfg.WarmIters, y, x); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds() / float64(cfg.WarmIters), nil
}
