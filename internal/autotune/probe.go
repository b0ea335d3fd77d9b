package autotune

import (
	"errors"
	"fmt"
	"io/fs"
	"time"

	"spmv/internal/core"
	"spmv/internal/formats"
	"spmv/internal/obs"
	"spmv/internal/parallel"
	"spmv/internal/prof/archive"
	"spmv/internal/stats"
)

// probeSamples is how many repeated measurements each probed candidate
// gets (budget permitting); >= 2 so the Welch comparator has spread to
// work with.
const probeSamples = 3

// probe short-benches the leading candidates within opts.Budget and
// re-ranks by measured time. A plain-CSR baseline is always probed
// alongside the analytic leaders, so the winner is never a combo that
// measured slower than CSR: an unprobed candidate cannot outrank a
// probed one, and among probed ones the fastest mean wins.
func probe(c *core.COO, rep *Report, opts Options) error {
	deadline := time.Now().Add(opts.Budget)
	iters := proberIters(c.Len())
	rep.Probed = true
	rep.ProbeIters = iters

	baseline := baselineIndex(rep)

	probed := 0
	for i := range rep.Candidates {
		cand := &rep.Candidates[i]
		if !cand.Feasible {
			continue
		}
		if probed >= opts.TopK && i != baseline {
			continue
		}
		if probed > 0 && i != baseline && time.Now().After(deadline) {
			continue // budget spent: only the baseline still gets its turn
		}
		if err := probeOne(c, cand, iters, opts.Threads, deadline); err != nil {
			// A candidate that fails to build or execute drops out of
			// contention; that is a ranking outcome, not a tuning error.
			cand.Feasible = false
			cand.Reason = "probe: " + err.Error()
			continue
		}
		probed++
	}
	if probed == 0 {
		return fmt.Errorf("no candidate survived probing")
	}

	// Snapshot the baseline's record before re-ranking moves indices.
	var csrRec *archive.Record
	if baseline >= 0 && rep.Candidates[baseline].Probed {
		r := probeRecord(rep.Candidates[baseline], opts, c)
		csrRec = &r
	}

	rank(rep.Candidates)

	if csrRec != nil && !isPlainCSR(rep.Candidates[0].Spec) {
		winRec := probeRecord(rep.Candidates[0], opts, c)
		winRec.Name = csrRec.Name
		winRec.Scale = csrRec.Scale
		if res, err := archive.Compare(
			[]archive.Record{*csrRec}, []archive.Record{winRec}, archive.Options{}); err == nil && len(res) == 1 {
			rep.VsCSR = &res[0]
		}
	}

	if opts.ArchivePath != "" {
		if err := appendArchive(c, rep, opts); err != nil {
			rep.ArchiveNote = err.Error()
		}
	}
	return nil
}

// isPlainCSR reports whether the spec is unhinted baseline CSR.
func isPlainCSR(s formats.Spec) bool {
	return s.Name() == "csr" && s.Partition == ""
}

// baselineIndex locates — appending if absent — the plain-CSR baseline
// candidate every probe run measures.
func baselineIndex(rep *Report) int {
	for i, cand := range rep.Candidates {
		if isPlainCSR(cand.Spec) && cand.Feasible {
			return i
		}
	}
	base := Candidate{Spec: formats.Spec{Format: "csr"}}
	base.PredBytes, base.Exact, base.Feasible, base.Reason = PredictBytes(rep.Features, base.Spec)
	base.Score = float64(base.PredBytes)
	rep.Candidates = append(rep.Candidates, base)
	return len(rep.Candidates) - 1
}

// proberIters sizes the per-sample iteration count so one sample does
// a few million non-zero multiplies: enough to swamp dispatch
// overhead, small enough to fit several samples in a sub-second
// budget.
func proberIters(nnz int) int {
	if nnz <= 0 {
		return 1
	}
	iters := int(4_000_000 / int64(nnz))
	if iters < 1 {
		return 1
	}
	if iters > 50 {
		return 50
	}
	return iters
}

// probeOne builds and measures one candidate in place: cand.ProbeSecs
// becomes the mean seconds per iteration, with the sample spread kept
// for the Welch comparison and archive recording.
func probeOne(c *core.COO, cand *Candidate, iters, threads int, deadline time.Time) error {
	f, err := Build(c, cand.Spec)
	if err != nil {
		return err
	}
	run, err := parallel.New(f, parallel.ExecOptions{
		Threads: threads, Partition: cand.Spec.Partition,
	})
	if err != nil {
		return err
	}
	defer run.Close()

	x := make([]float64, f.Cols())
	for i := range x {
		x[i] = 1
	}
	y := make([]float64, f.Rows())
	// One untimed warm pass faults pages and spins the workers up.
	if err := run.RunIters(1, y, x); err != nil {
		return err
	}
	samples := make([]float64, 0, probeSamples)
	for s := 0; s < probeSamples; s++ {
		t0 := time.Now()
		if err := run.RunIters(iters, y, x); err != nil {
			return err
		}
		samples = append(samples, time.Since(t0).Seconds()/float64(iters))
		if len(samples) >= 2 && time.Now().After(deadline) {
			break // budget spent; two samples keep the t-test honest
		}
	}
	mean, stddev := stats.MeanStddev(samples)
	cand.Probed = true
	cand.ProbeSecs = mean
	cand.ProbeStddev = stddev
	cand.ProbeSampleN = len(samples)
	cand.ProbeBytes = obs.BytesPerSpMV(f)
	return nil
}

// probeRecord summarizes a probed candidate as an archive record.
func probeRecord(cand Candidate, opts Options, c *core.COO) archive.Record {
	name := opts.MatrixName
	if name == "" {
		name = fmt.Sprintf("tune-%dx%d-nnz%d", c.Rows(), c.Cols(), c.Len())
	}
	fname := cand.Spec.Name()
	rec := archive.Record{
		Name:         archive.CellName(name, fname, opts.Threads),
		Matrix:       name,
		Format:       fname,
		Threads:      opts.Threads,
		Iters:        proberIters(c.Len()),
		Samples:      cand.ProbeSampleN,
		MeanSecs:     cand.ProbeSecs,
		StddevSecs:   cand.ProbeStddev,
		BytesPerIter: cand.ProbeBytes,
	}
	if cand.ProbeSecs > 0 {
		rec.GBps = obs.GBps(cand.ProbeBytes, cand.ProbeSecs)
	}
	return rec
}

// appendArchive records every probed candidate back into the benchmark
// archive so later tunes (and bench comparisons) see the measurements
// as priors. Same-name cells are replaced, everything else preserved.
func appendArchive(c *core.COO, rep *Report, opts Options) error {
	f, err := archive.Load(opts.ArchivePath)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		f = &archive.File{Schema: archive.Schema}
	}
	fresh := make(map[string]archive.Record)
	for _, cand := range rep.Candidates {
		if !cand.Probed {
			continue
		}
		rec := probeRecord(cand, opts, c)
		fresh[rec.Name] = rec
	}
	kept := f.Records[:0]
	for _, r := range f.Records {
		if _, replaced := fresh[r.Name]; !replaced {
			kept = append(kept, r)
		}
	}
	f.Records = kept
	for _, rec := range fresh {
		f.Records = append(f.Records, rec)
	}
	return archive.Write(opts.ArchivePath, f)
}
