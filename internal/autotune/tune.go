package autotune

import (
	"errors"
	"fmt"
	"io/fs"
	"runtime"
	"sort"
	"time"

	"spmv/internal/core"
	"spmv/internal/formats"
	"spmv/internal/prof/archive"
	"spmv/internal/roofline"
)

// Options configure Tune. The zero value runs the deterministic
// analytic ranking only.
type Options struct {
	// Threads is the executor thread count the tuning targets (probe
	// runs and archive-prior matching use it); 0 means GOMAXPROCS.
	Threads int
	// Budget bounds the measured-probe refinement stage; 0 skips
	// probing and the ranking stays purely analytic (and bit-stable).
	Budget time.Duration
	// TopK is how many leading candidates the probe stage measures
	// (plain CSR is always probed as the baseline); 0 means 3.
	TopK int
	// ArchivePath, when set, names the BENCH_<host>.json file used two
	// ways: significant measured priors from it re-weight the analytic
	// ranking, and probe results are recorded back into it.
	ArchivePath string
	// MatrixName keys probe records in the archive; empty derives a
	// name from the matrix dimensions.
	MatrixName string
	// Candidates overrides the default candidate list (rarely needed
	// outside tests).
	Candidates []Candidate
	// Roofline, when non-nil, is the host bandwidth model used as a
	// prior: every candidate's score is divided by the ceiling
	// bytes/second at Threads, restating it as predicted seconds
	// (Candidate.PredSecs) directly comparable with probe timings. A
	// constant divisor per run, so the analytic ranking is unchanged.
	Roofline *roofline.Model
}

func (o Options) withDefaults() Options {
	if o.Threads <= 0 {
		o.Threads = runtime.GOMAXPROCS(0)
	}
	if o.TopK <= 0 {
		o.TopK = 3
	}
	return o
}

// Report is the serializable decision trace of one tuning run: the
// extracted features, every candidate with its prediction and score
// (ranked, best first), the chosen combo, and — when the probe stage
// ran — the measured timings and the Welch comparison of the winner
// against plain CSR.
type Report struct {
	Features Features `json:"features"`
	// Candidates are ranked best-first: feasible before infeasible,
	// then ascending score (probe timings override the analytic order
	// for probed candidates).
	Candidates []Candidate `json:"candidates"`
	// Chosen is the winning spec; ChosenPredBytes its analytic
	// bytes-per-SpMV prediction.
	Chosen          formats.Spec `json:"chosen"`
	ChosenPredBytes int64        `json:"chosen_pred_bytes"`
	// PriorsUsed reports whether any significant archive prior
	// re-weighted the ranking.
	PriorsUsed bool `json:"priors_used,omitempty"`
	// Probed reports whether the measurement stage ran; ProbeIters is
	// the per-sample iteration count it used.
	Probed     bool `json:"probed,omitempty"`
	ProbeIters int  `json:"probe_iters,omitempty"`
	// VsCSR is the statistical comparison of the chosen combo's probe
	// timing against the plain-CSR probe (probe runs only).
	VsCSR *archive.Result `json:"vs_csr,omitempty"`
	// ArchiveNote records a non-fatal problem loading or writing the
	// benchmark archive ("" when clean).
	ArchiveNote string `json:"archive_note,omitempty"`
	// CeilingGBps and RooflineSource record the bandwidth prior the
	// scores were normalized by (0 / "" without Options.Roofline).
	CeilingGBps    float64 `json:"ceiling_gbps,omitempty"`
	RooflineSource string  `json:"roofline_source,omitempty"`
}

// Tune extracts features, ranks candidates, and (within Options.Budget)
// probes the leaders. The returned report always has at least one
// feasible candidate — plain CSR ranks even when nothing else does.
func Tune(c *core.COO, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	ft := Extract(c)
	return tuneFeatures(c, ft, opts)
}

// tuneFeatures is Tune past feature extraction, shared with callers
// that already hold the features.
func tuneFeatures(c *core.COO, ft Features, opts Options) (*Report, error) {
	rep := &Report{Features: ft}
	cands := opts.Candidates
	if cands == nil {
		cands = Candidates(ft)
	}
	rep.Candidates = make([]Candidate, len(cands))
	copy(rep.Candidates, cands)

	if opts.ArchivePath != "" {
		if f, err := archive.Load(opts.ArchivePath); err == nil {
			priors := loadPriors(f.Records, opts.Threads)
			applyPriors(rep.Candidates, priors)
			for _, cand := range rep.Candidates {
				if cand.PriorSignificant {
					rep.PriorsUsed = true
					break
				}
			}
		} else if !errors.Is(err, fs.ErrNotExist) {
			rep.ArchiveNote = err.Error()
		}
	}

	if c := opts.Roofline.CeilingGBps(opts.Threads); c > 0 {
		rep.CeilingGBps = c
		rep.RooflineSource = opts.Roofline.Source
		for i := range rep.Candidates {
			cand := &rep.Candidates[i]
			cand.PredSecs = float64(cand.PredBytes) / (c * 1e9)
			cand.Score /= c * 1e9
		}
	}

	rank(rep.Candidates)

	if opts.Budget > 0 {
		if err := probe(c, rep, opts); err != nil {
			return nil, fmt.Errorf("autotune: probe: %w", err)
		}
	}

	for _, cand := range rep.Candidates {
		if cand.Feasible {
			rep.Chosen = cand.Spec
			rep.ChosenPredBytes = cand.PredBytes
			return rep, nil
		}
	}
	return nil, fmt.Errorf("autotune: no feasible candidate for %dx%d nnz=%d",
		ft.Rows, ft.Cols, ft.NNZ)
}

// rank orders candidates best-first: feasible before infeasible,
// probed (by measured time) before unprobed within the feasible set
// when probes ran, ascending score otherwise. The sort is stable over
// the fixed candidate order, so the analytic ranking is bit-stable
// across runs.
func rank(cands []Candidate) {
	sort.SliceStable(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.Feasible != b.Feasible {
			return a.Feasible
		}
		if a.Probed != b.Probed {
			return a.Probed
		}
		if a.Probed && b.Probed {
			return a.ProbeSecs < b.ProbeSecs
		}
		return a.Score < b.Score
	})
}

// Build constructs the spec's format.
func Build(c *core.COO, s formats.Spec) (core.Format, error) {
	return formats.BuildSpec(c, s)
}
