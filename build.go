package spmv

import (
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
	auto     bool
	report   *TuneReport
}

// Autotuning vocabulary (DESIGN.md §15). TuneReport is what
// WithTuneReport fills in: the full serializable decision trace of an
// autotuned Build.
type (
	// TuneReport is the decision trace of one tuning run: every
	// candidate with its size and measured time, and the chosen spec.
	TuneReport = autotune.Report
	// TuneCandidate is one timed format of the tuner's short list.
	TuneCandidate = autotune.Candidate
	// FormatSpec names a format with its encoder options and scheduler
	// hints.
	FormatSpec = formats.Spec
)

// WithFormat selects the storage format by registry name ("csr",
// "csr-du", "csr-vi", "csr-du-vi", "dcsr", ...); see FormatNames for the
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

// WithAutoFormat lets the autotuner choose the format: it builds csr,
// csr-vi, csr-du, csr-du-vi where a value dictionary pays and sym-csr
// where the matrix is symmetric, times each against CSR on GOMAXPROCS
// threads, and returns the fastest (within 5%, the smallest). Retrieve
// what it measured with WithTuneReport.
func WithAutoFormat() BuildOption {
	return func(c *buildConfig) { c.auto = true }
}

// WithTuneReport enables autotuning (implies WithAutoFormat) and
// copies the decision trace into *r, which must be non-nil. The report
// is self-contained and json.Marshal-able, so tuning decisions can be
// logged, diffed and replayed offline.
func WithTuneReport(r *TuneReport) BuildOption {
	return func(c *buildConfig) { c.auto = true; c.report = r }
}

// Build constructs a sparse matrix from triplets under functional
// options — the one way to build a registry format:
//
//	m, err := spmv.Build(c, spmv.WithFormat("csr-du"),
//		spmv.WithDUOptions(spmv.DUOptions{RLE: true}))
//
// With no options it builds baseline CSR. With WithAutoFormat the
// autotuner picks the format, and WithTuneReport says why:
//
//	var rep spmv.TuneReport
//	m, err := spmv.Build(c, spmv.WithAutoFormat(), spmv.WithTuneReport(&rep))
//
// Build returns the Format interface, which is what the executors and
// solvers take; assert to a concrete type (*CSR, *CSRDU, ...) for its
// fields.
func Build(c *COO, opts ...BuildOption) (Format, error) {
	cfg := buildConfig{name: "csr"}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.auto {
		if cfg.explicit {
			return nil, core.Usagef("spmv: WithFormat(%q) and WithAutoFormat are mutually exclusive", cfg.name)
		}
		f, rep, err := autotune.Tune(c, autotune.Options{})
		if err != nil {
			return nil, err
		}
		if cfg.report != nil {
			*cfg.report = *rep
		}
		return f, nil
	}
	return formats.BuildOpts(cfg.name, c, cfg.du)
}
