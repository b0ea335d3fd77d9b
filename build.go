package spmv

import (
	"time"

	"spmv/internal/autotune"
	"spmv/internal/core"
	"spmv/internal/formats"
)

// BuildOption configures Build. The zero configuration builds CSR with
// default encoder settings.
type BuildOption func(*buildConfig)

type buildConfig struct {
	name     string
	explicit bool
	du       DUOptions
	workers  int
	auto     bool
	budget   time.Duration
	report   *TuneReport
}

// Autotuning vocabulary (DESIGN.md §15). TuneReport is what
// WithTuneReport fills in: the full serializable decision trace of an
// autotuned Build.
type (
	// TuneReport is the decision trace of one tuning run: extracted
	// features, every candidate with its predicted traffic and score
	// (ranked best-first), the chosen combo, and probe timings when a
	// budget allowed measurement.
	TuneReport = autotune.Report
	// TuneCandidate is one ranked (format, options, scheduler) combo.
	TuneCandidate = autotune.Candidate
	// TuneFeatures is the structural feature vector driving selection.
	TuneFeatures = autotune.Features
	// FormatSpec names a format with its encoder options and scheduler
	// hints — the unit of candidate ranking. Pass Chosen.Partition to
	// ExecOptions to run the matrix as tuned.
	FormatSpec = formats.Spec
)

// WithFormat selects the storage format by registry name ("csr",
// "csr-du", "csr-vi", "csr-du-vi", "ell", ...); see FormatNames for the
// full list. An unknown name surfaces from Build as an ErrUsage listing
// every valid name. Mutually exclusive with WithAutoFormat.
func WithFormat(name string) BuildOption {
	return func(c *buildConfig) { c.name = name; c.explicit = true }
}

// WithDUOptions passes explicit CSR-DU encoder options (RLE units, unit
// split thresholds) to the delta-unit family ("csr-du", "csr-du-vi").
// Other formats ignore it.
func WithDUOptions(o DUOptions) BuildOption {
	return func(c *buildConfig) { c.du = o }
}

// WithWorkers sets the number of concurrent encoder workers for formats
// with a parallel builder (currently the CSR-DU family), overriding
// DUOptions.Workers whichever option comes first: 1 encodes serially,
// n > 1 uses n workers, negative means GOMAXPROCS, and 0 keeps
// DUOptions.Workers. The encoded stream is byte-identical to the
// serial encoder's.
func WithWorkers(n int) BuildOption {
	return func(c *buildConfig) { c.workers = n }
}

// WithAutoFormat lets the autotuner choose the format: structural
// features are extracted from the triplets, every registry candidate
// is ranked by predicted bytes-per-SpMV under the traffic model
// (blended with statistically significant measured priors from the
// host's benchmark archive when one is configured), and the winner is
// built. The analytic decision is deterministic; add WithAutoBudget to
// let measurement refine it. Retrieve the full decision trace with
// WithTuneReport.
func WithAutoFormat() BuildOption {
	return func(c *buildConfig) { c.auto = true }
}

// WithAutoBudget enables autotuning (implies WithAutoFormat) with a
// measured-probe refinement stage: the top-ranked candidates are
// short-benched within roughly d of wall time and the fastest measured
// combo wins. A plain-CSR baseline is always probed alongside, so the
// refined choice is never a combo that measured slower than CSR.
func WithAutoBudget(d time.Duration) BuildOption {
	return func(c *buildConfig) { c.auto = true; c.budget = d }
}

// WithTuneReport enables autotuning (implies WithAutoFormat) and
// copies the decision trace into *r, which must be non-nil. The report
// is self-contained and json.Marshal-able, so tuning decisions can be
// logged, diffed and replayed offline.
func WithTuneReport(r *TuneReport) BuildOption {
	return func(c *buildConfig) { c.auto = true; c.report = r }
}

// Build constructs a sparse matrix from triplets under functional
// options — the one-stop replacement for the NewXxx constructor family:
//
//	m, err := spmv.Build(c, spmv.WithFormat("csr-du"),
//		spmv.WithDUOptions(spmv.DUOptions{RLE: true}),
//		spmv.WithWorkers(8))
//
// With no options it builds baseline CSR. With WithAutoFormat the
// autotuner picks the format (and scheduler hints, reported via
// WithTuneReport):
//
//	var rep spmv.TuneReport
//	m, err := spmv.Build(c, spmv.WithAutoFormat(), spmv.WithTuneReport(&rep))
//	e, err := spmv.NewExecutorOpts(m, spmv.ExecOptions{
//		Partition: rep.Chosen.Partition})
//
// Every NewXxx constructor remains supported and returns its concrete
// type; Build returns the Format interface, which is what the
// executors and solvers take.
func Build(c *COO, opts ...BuildOption) (Format, error) {
	cfg := buildConfig{name: "csr"}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.auto {
		if cfg.explicit {
			return nil, core.Usagef("spmv: WithFormat(%q) and WithAutoFormat are mutually exclusive", cfg.name)
		}
		rep, err := autotune.Tune(c, autotune.Options{Budget: cfg.budget})
		if err != nil {
			return nil, err
		}
		if cfg.report != nil {
			*cfg.report = *rep
		}
		return autotune.Build(c, rep.Chosen)
	}
	if cfg.workers != 0 {
		cfg.du.Workers = cfg.workers
	}
	return formats.BuildOpts(cfg.name, c, cfg.du)
}

// buildAs routes a concrete-typed constructor through the options
// path: one registry build plus a type assertion back to the
// constructor's concrete return type.
func buildAs[T Format](c *COO, opts ...BuildOption) (T, error) {
	var zero T
	f, err := Build(c, opts...)
	if err != nil {
		return zero, err
	}
	return f.(T), nil
}
