// Package autotune chooses a matrix's storage format by timing the
// paper's short list against CSR on the host that will run it
// (DESIGN.md §15). Every "auto" in the module — spmv.Build with
// WithAutoFormat, spmvd's format=auto, spmvbench -auto and spmvsolve
// -format auto — calls Tune.
package autotune

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"spmv/internal/core"
	"spmv/internal/formats"
	"spmv/internal/parallel"
)

// Options configure Tune.
type Options struct {
	// Threads is the executor thread count the candidates are timed
	// at; 0 means GOMAXPROCS.
	Threads int
}

// Candidate is one format of the short list with what Tune measured.
type Candidate struct {
	Spec formats.Spec `json:"spec"`
	// Bytes is the built matrix's SizeBytes.
	Bytes int64 `json:"bytes"`
	// NsPerNNZ is the median time of one multiply, per non-zero.
	NsPerNNZ float64 `json:"ns_per_nnz"`
	// Ratio is the median, over the rounds, of the candidate's time
	// over CSR's time in the same round; 1 for CSR itself.
	Ratio float64 `json:"ratio"`
	// Samples is the number of timed samples behind NsPerNNZ.
	Samples int `json:"samples"`
	// Reason says why the candidate was not timed: its build or a
	// multiply failed, or csr-du-vi was skipped. Such a candidate is
	// never chosen.
	Reason string `json:"reason,omitempty"`
}

// Report is the decision trace of one Tune.
type Report struct {
	// Chosen is the winning spec. Its Partition is always "": each
	// candidate is timed on the executor parallel.New picks for it.
	Chosen formats.Spec `json:"chosen"`
	// Candidates are in the order they were built, CSR first.
	Candidates []Candidate `json:"candidates"`
}

// Choice returns the chosen candidate's entry.
func (r *Report) Choice() Candidate {
	for _, c := range r.Candidates {
		if c.Reason == "" && c.Spec.Name() == r.Chosen.Name() {
			return c
		}
	}
	return Candidate{Spec: r.Chosen}
}

const (
	// rounds is the number of CSR-then-candidate sample pairs each
	// candidate is timed in. Odd, so the median is one round's ratio.
	rounds = 5
	// tie is the relative ratio difference within which the candidate
	// with fewer bytes wins: closer than this, host drift decides the
	// order of two timings, and the smaller matrix leaves more cache
	// for everything else.
	tie = 0.05
)

// The clock and the builder. Tests replace them to time fake formats
// deterministically.
var (
	now   = time.Now
	build = formats.BuildSpec
)

// Tune builds csr, csr-vi and csr-du, csr-du-vi where the built csr-vi
// took the dictionary codec (csrvi.Pays), and sym-csr where the matrix
// is symmetric, and times each against CSR in alternating rounds. The
// lowest median ratio to CSR wins; within 5% the smaller matrix does.
// Below the small-matrix floor (dispatchBound) the smallest matrix
// wins outright. Tune returns the winner built, with the report of
// what it measured.
//
// At most three matrices are alive at once: CSR, the best so far and
// the one being timed. A loser is released as soon as it loses.
func Tune(c *core.COO, opts Options) (core.Format, *Report, error) {
	c.Finalize()
	threads := opts.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	t := &tuner{threads: threads, iters: proberIters(c.Len()), nnz: max(c.Len(), 1),
		x: make([]float64, c.Cols()), y: make([]float64, c.Rows())}
	for i := range t.x {
		t.x[i] = 1
	}
	base, err := t.open(c, formats.Spec{Format: "csr"})
	if err != nil {
		return nil, nil, fmt.Errorf("autotune: csr baseline: %w", err)
	}
	defer base.release()
	small, err := t.dispatchBound(base)
	if err != nil {
		return nil, nil, fmt.Errorf("autotune: csr baseline: %w", err)
	}
	rep := &Report{Candidates: []Candidate{base.cand}}
	best, viDict := base, false
	for _, s := range []formats.Spec{{Format: "csr-vi"}, {Format: "csr-du"}, {Format: "csr-du-vi"}, {Format: "sym-csr"}} {
		if s.Format == "csr-du-vi" && !viDict {
			rep.Candidates = append(rep.Candidates, Candidate{Spec: s,
				Reason: "skipped: no value dictionary pays (csr-vi took the plain codec)"})
			continue
		}
		cur, err := t.open(c, s)
		if err == nil && s.Format == "csr-vi" {
			w, ok := cur.f.(interface{ IndexWidth() int })
			viDict = ok && w.IndexWidth() > 0
		}
		if err == nil {
			err = t.time(base, cur)
		}
		if err != nil {
			cur.release()
			rep.Candidates = append(rep.Candidates, Candidate{Spec: s, Reason: err.Error()})
			continue
		}
		rep.Candidates = append(rep.Candidates, cur.cand)
		if better(cur.cand, best.cand, small) {
			if best != base {
				best.release()
			}
			best = cur
		} else {
			cur.release()
		}
	}
	rep.Candidates[0] = base.summary(t)
	rep.Chosen = best.cand.Spec
	f := best.f
	if best != base {
		best.release()
	}
	return f, rep, nil
}

// Build constructs the spec's format.
func Build(c *core.COO, s formats.Spec) (core.Format, error) {
	return formats.BuildSpec(c, s)
}

// tuner holds what every timed candidate shares: the thread count, the
// per-sample iteration count and the multiply's vectors.
type tuner struct {
	threads, iters, nnz int
	x, y                []float64
}

// entrant is a built candidate with its executor and timings. nil
// fields mean it was released.
type entrant struct {
	f    core.Format
	run  parallel.Runner
	ns   []float64 // per-sample time of one multiply, in ns
	cand Candidate
}

// open builds s, starts its executor and runs one untimed multiply that
// faults the pages in and spins the workers up.
func (t *tuner) open(c *core.COO, s formats.Spec) (*entrant, error) {
	f, err := build(c, s)
	if err != nil {
		return nil, err
	}
	run, err := parallel.New(f, parallel.ExecOptions{Threads: t.threads})
	if err != nil {
		return nil, err
	}
	e := &entrant{f: f, run: run, cand: Candidate{Spec: s, Bytes: f.SizeBytes(), Ratio: 1}}
	if err := run.RunIters(1, t.y, t.x); err != nil {
		e.release()
		return nil, err
	}
	return e, nil
}

// release closes e's executor and drops its matrix. Safe on nil and
// more than once.
func (e *entrant) release() {
	if e == nil || e.run == nil {
		return
	}
	e.run.Close()
	e.f, e.run = nil, nil
}

// sample times t.iters multiplies of e and records the time of one.
func (t *tuner) sample(e *entrant) (float64, error) {
	t0 := now()
	if err := e.run.RunIters(t.iters, t.y, t.x); err != nil {
		return 0, err
	}
	ns := max(float64(now().Sub(t0)), 1) / float64(t.iters)
	e.ns = append(e.ns, ns)
	return ns, nil
}

// dispatchBound times CSR serially and on the executor, in alternating
// samples, and reports whether the matrix is below the small-matrix
// floor. On T threads a multiply costs its serial time over T plus the
// dispatch; below the floor the dispatch costs more than each thread's
// share, so the executor's time exceeds twice the serial time over T.
// There every candidate's timing is mostly the same dispatch, and the
// ratios rank host noise rather than formats.
func (t *tuner) dispatchBound(base *entrant) (bool, error) {
	serial := make([]float64, 0, rounds)
	for range rounds {
		if _, err := t.sample(base); err != nil {
			return false, err
		}
		t0 := now()
		for range t.iters {
			base.f.SpMV(t.y, t.x)
		}
		serial = append(serial, max(float64(now().Sub(t0)), 1)/float64(t.iters))
	}
	return median(base.ns) > 2*median(serial)/float64(t.threads), nil
}

// time times cur in rounds that each sample base and then cur, so host
// drift lands on both sides of every ratio, and fills in cur's ratio.
func (t *tuner) time(base, cur *entrant) error {
	ratios := make([]float64, 0, rounds)
	for range rounds {
		b, err := t.sample(base)
		if err != nil {
			return fmt.Errorf("csr baseline: %w", err)
		}
		a, err := t.sample(cur)
		if err != nil {
			return err
		}
		ratios = append(ratios, a/b)
	}
	cur.cand = cur.summary(t)
	cur.cand.Ratio = median(ratios)
	return nil
}

// summary is e's candidate entry with its samples folded in.
func (e *entrant) summary(t *tuner) Candidate {
	c := e.cand
	c.Samples = len(e.ns)
	if c.Samples > 0 {
		c.NsPerNNZ = median(e.ns) / float64(t.nnz)
	}
	return c
}

// better reports whether a beats b: the lower ratio to CSR, unless the
// two are within tie of each other or the matrix is small (below the
// dispatch floor), where the smaller matrix wins.
func better(a, b Candidate, small bool) bool {
	if small || max(a.Ratio, b.Ratio) <= (1+tie)*min(a.Ratio, b.Ratio) {
		return a.Bytes < b.Bytes
	}
	return a.Ratio < b.Ratio
}

// median returns the median of v, which must not be empty; v is left
// as it was.
func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// proberIters sizes the per-sample iteration count so one sample does
// a few million non-zero multiplies: enough to swamp dispatch
// overhead, few enough that a large matrix takes one multiply a
// sample.
func proberIters(nnz int) int {
	if nnz <= 0 {
		return 1
	}
	return min(max(4_000_000/nnz, 1), 50)
}
