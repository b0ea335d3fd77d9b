package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"spmv"
	"spmv/internal/autotune"
	"spmv/internal/core"
	"spmv/internal/formats"
	"spmv/internal/matgen"
	"spmv/internal/obs"
	"spmv/internal/parallel"
	"spmv/internal/roofline"
)

// kernelDef is one of the two -mt parts: a large matrix multiplied
// through every format kernel, the executor and CG.
type kernelDef struct {
	name string
	gen  func(rng *rand.Rand, sc scale) *core.COO
	// spd, when non-nil, generates the matrix CG and the autotuner run
	// on instead of the main one. scatter-mt needs it: SkewedRows is not
	// symmetric, and autotune.Tune takes 47 s on it.
	spd func(sc scale) *core.COO
}

var (
	stencilMT = kernelDef{
		name: "stencil-mt",
		gen:  func(_ *rand.Rand, sc scale) *core.COO { return matgen.Stencil3D(sc.Stencil3D) },
	}
	scatterMT = kernelDef{
		name: "scatter-mt",
		gen: func(rng *rand.Rand, sc scale) *core.COO {
			return matgen.SkewedRows(rng, sc.ScatterRows, 8, 0, 0.2, matgen.Values{})
		},
		spd: func(sc scale) *core.COO { return matgen.Stencil2D(sc.SolveGrid) },
	}
)

// The three formats every kernel metric is taken on, by metric suffix.
var formatNames = []struct{ key, registry string }{
	{"csr", "csr"}, {"csrdu", "csr-du"}, {"csrvi", "csr-vi"},
}

// built is one matrix with its formats, executors and the reference
// result every timed multiply is checked against.
type built struct {
	c    *core.COO
	f    map[string]core.Format     // by metric suffix: csr, csrdu, csrvi
	ex   map[string]parallel.Runner // row partition, T threads
	x    []float64
	y    []float64 // output buffer of the timed multiplies
	yref []float64 // serial CSR y = A*x
	tol  []float64 // 8 * nnz(row i) * eps * (|A||x|)_i
}

func (b *built) close() {
	for _, e := range b.ex {
		e.Close()
	}
}

// buildVerified builds c in one registry format and verifies the result,
// as two layer calls feeding formats.build_<key>_s and core.verify_s.
func (r *run) buildVerified(parent int64, registry, key string, c *core.COO) (core.Format, error) {
	var f core.Format
	settle() // un-forced, CSR build time varied 0.2-2.6 s with the collector's phase
	if err := r.call(parent, "formats.build_"+key, "formats.build_"+key+"_s", func() (err error) {
		f, err = formats.Build(registry, c)
		return err
	}); err != nil {
		return nil, fmt.Errorf("build %s: %w", registry, err)
	}
	if err := r.call(parent, "core.verify", "core.verify_s", func() error { return core.Verify(f) }); err != nil {
		return nil, fmt.Errorf("verify %s: %w", registry, err)
	}
	return f, nil
}

// prepare builds the named formats of c (csr first), verifies them,
// starts a T-thread row executor on each and computes the reference.
func (r *run) prepare(parent int64, c *core.COO, rng *rand.Rand, keys ...string) (*built, error) {
	b := &built{c: c, f: map[string]core.Format{}, ex: map[string]parallel.Runner{}}
	b.x = make([]float64, c.Cols())
	for i := range b.x {
		b.x[i] = 1 + rng.Float64()
	}
	b.y = make([]float64, c.Rows())
	for _, fn := range formatNames {
		if !slices.Contains(keys, fn.key) {
			continue
		}
		f, err := r.buildVerified(parent, fn.registry, fn.key, c)
		if err != nil {
			return nil, err
		}
		b.f[fn.key] = f
	}
	b.yref = make([]float64, c.Rows())
	b.f["csr"].SpMV(b.yref, b.x)
	b.tol = tolerance(c, b.x)
	for _, fn := range formatNames {
		f, ok := b.f[fn.key]
		if !ok {
			continue
		}
		var e parallel.Runner
		if err := r.call(parent, "parallel.new", "parallel.new_s", func() (err error) {
			e, err = parallel.New(f, parallel.ExecOptions{Threads: r.T})
			return err
		}); err != nil {
			return nil, fmt.Errorf("executor %s: %w", fn.key, err)
		}
		b.ex[fn.key] = e
		if err := e.RunIters(warmupIters, b.y, b.x); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", fn.key, err)
		}
	}
	return b, nil
}

// tolerance returns the per-row rounding bound 8*n_row*eps*(|A||x|)_i a
// result computed in another summation order may differ from the
// reference by.
func tolerance(c *core.COO, x []float64) []float64 {
	const eps = 0x1p-52
	abs := make([]float64, c.Rows())
	for k := 0; k < c.Len(); k++ {
		i, j, v := c.At(k)
		abs[i] += math.Abs(v) * math.Abs(x[j])
	}
	counts := c.RowCounts()
	for i := range abs {
		abs[i] *= 8 * float64(counts[i]) * eps
	}
	return abs
}

// agrees checks a row-major panel of the given width against the
// reference vector: column c must equal 2^c * ref (width 1 is a plain
// vector), bitwise when tol is nil, within 2^c * tol otherwise. NaN never
// agrees.
func agrees(y, ref, tol []float64, width int) bool {
	for i, want := range ref {
		row := y[i*width : (i+1)*width]
		for c, got := range row {
			scale := float64(int(1) << c)
			if tol == nil {
				if math.Float64bits(got) != math.Float64bits(want*scale) {
					return false
				}
			} else if !(math.Abs(got-want*scale) <= tol[i]*scale) {
				return false
			}
		}
	}
	return true
}

// poison marks a few entries of y so that a multiply that did not run
// cannot pass the check on the previous sample's result.
func poison(y []float64) {
	nan := math.NaN()
	y[0], y[len(y)/2], y[len(y)-1] = nan, nan, nan
}

// sampler is one timed multiply: what a sample runs, how its result is
// checked, and the milliseconds per multiply of every sample that passed.
type sampler struct {
	name     string
	iters    int // multiplies per sample; rounds lowers it to fit sampleTarget
	multiply func(iters int) error
	prep     func()      // poisons the output before the sample
	check    func() bool // the correctness gate after it
	ms       []float64
}

func (s *sampler) summary() summary { return summarize(s.ms) }

// multiplySampler samples y = A*x on b, checked against the serial-CSR
// reference: bitwise when exact, within b.tol otherwise.
func multiplySampler(name string, iters int, b *built, exact bool, multiply func(iters int) error) *sampler {
	tol := b.tol
	if exact {
		tol = nil
	}
	return &sampler{name: name, iters: iters, multiply: multiply,
		prep:  func() { poison(b.y) },
		check: func() bool { return agrees(b.y, b.yref, tol, 1) }}
}

// rounds takes one sample of every sampler per round, round after round,
// until budget is spent, with at least minSamples and at most maxSamples
// rounds, after one untimed multiply per sampler that sizes its samples
// to sampleTarget. Interleaving spreads each metric's samples over the whole
// window: this host's noise drifts over seconds, so a metric measured in
// one contiguous slice inherits whatever that slice happened to see, and
// ratios between formats would compare different moments. A sample that
// fails its check is a failed operation and contributes no timing.
func (r *run) rounds(parent int64, name string, budget time.Duration, ss ...*sampler) {
	settle()
	ph := r.tr.start(parent, name)
	defer r.tr.end(ph)
	for _, s := range ss {
		start := time.Now()
		if err := s.multiply(1); err != nil {
			continue // the first sample reports it
		}
		if fit := int(sampleTarget/(time.Since(start)+1) + 1); fit < s.iters {
			s.iters = fit
		}
	}
	deadline := time.Now().Add(budget)
	for n := 0; n < maxSamples && (n < minSamples || time.Now().Before(deadline)); n++ {
		for _, s := range ss {
			s.prep()
			var err error
			d := r.layer(ph, s.name, func() { err = s.multiply(s.iters) })
			ok := err == nil && s.check()
			r.op(s.iters, ok)
			if ok {
				s.ms = append(s.ms, d.Seconds()*1e3/float64(s.iters))
			} else {
				r.logf("%s: sample %d failed its check (err=%v)", s.name, n, err)
			}
		}
	}
}

// runKernelPart runs one -mt part: set-up, the timed phases, and in the
// traced run the extra per-layer measurements.
func (r *run) runKernelPart(def kernelDef) error {
	rng := rand.New(rand.NewSource(r.seed))
	setupStart := time.Now()
	sp := r.tr.start(0, def.name+".setup")

	var c *core.COO
	d := r.layer(sp, "matgen.gen", func() { c = def.gen(rng, r.sc) })
	r.add("matgen.gen_s", d.Seconds())
	main, err := r.prepare(sp, c, rng, "csr", "csrdu", "csrvi")
	if err != nil {
		return err
	}
	defer main.close()
	nnz := float64(c.Len())
	r.ws[def.name] = core.WorkingSetOf(main.f["csr"])

	// The matrix CG (and, in the traced run, the autotuner) runs on.
	solve := main
	if def.spd != nil {
		var sc *core.COO
		d := r.layer(sp, "matgen.gen", func() { sc = def.spd(r.sc) })
		r.add("matgen.gen_s", d.Seconds())
		keys := []string{"csr"}
		if r.traced() { // autotune.regret needs every format on this matrix
			keys = []string{"csr", "csrdu", "csrvi"}
		}
		if solve, err = r.prepare(sp, sc, rng, keys...); err != nil {
			return err
		}
		defer solve.close()
	}

	// The SpMM panel: column c of X is 2^c * x, so column c of Y must be
	// 2^c * yref (scaling by a power of two commutes with rounding).
	xb := make([]float64, len(main.x)*panelWidth)
	for j, v := range main.x {
		for col := 0; col < panelWidth; col++ {
			xb[j*panelWidth+col] = v * float64(int(1)<<col)
		}
	}
	yb := make([]float64, len(main.y)*panelWidth)
	if err := main.ex["csrdu"].RunBatchIters(1, yb, xb, panelWidth); err != nil {
		return fmt.Errorf("warm-up spmm8: %w", err)
	}
	panelOK := func() bool { return agrees(yb, main.yref, main.tol, panelWidth) }
	r.tr.end(sp)
	r.setup += time.Since(setupStart)

	// ---- timed phases ----
	tp := r.tr.start(0, def.name+".timed")
	csrF := main.f["csr"]
	serialLoop := func(f core.Format) func(int) error {
		return func(n int) error {
			for i := 0; i < n; i++ {
				f.SpMV(main.y, main.x)
			}
			return nil
		}
	}
	serial := multiplySampler("csr.serial", itersSerial, main, true, serialLoop(csrF))
	par := map[string]*sampler{}
	for _, fn := range formatNames {
		e := main.ex[fn.key]
		// Row-partitioned CSR sums each row in the serial order, so it is held to bitwise equality.
		par[fn.key] = multiplySampler("parallel.run_"+fn.key, itersParallel, main, fn.key == "csr",
			func(n int) error { return e.RunIters(n, main.y, main.x) })
	}
	spmm := &sampler{name: "parallel.runbatch_csrdu", iters: itersSpMM, prep: func() { poison(yb) }, check: panelOK,
		multiply: func(n int) error { return main.ex["csrdu"].RunBatchIters(n, yb, xb, panelWidth) }}
	r.rounds(tp, "kernels.rounds", r.share(shareKernels), serial, par["csr"], par["csrdu"], par["csrvi"], spmm)
	cg, err := r.solvePhase(tp, solve)
	if err != nil {
		return err
	}
	r.tr.end(tp)

	if !r.traced() {
		r.setSummary("spmv_csr_serial_ms", serial.summary())
		r.setSummary("spmv_csr_ms", par["csr"].summary())
		r.setSummary("spmv_csrdu_ms", par["csrdu"].summary())
		r.setSummary("spmv_csrvi_ms", par["csrvi"].summary())
		r.setSummary("spmm8_csrdu_ms", spmm.summary())
		r.setSummary("cg_solve_s", cg.solve)
		return nil
	}

	// ---- traced run only: the per-layer numbers ----
	xp := r.tr.start(0, def.name+".layers")
	defer r.tr.end(xp)
	serialDU := multiplySampler("csrdu.serial", itersSerial, main, false, serialLoop(main.f["csrdu"]))
	serialVI := multiplySampler("csrvi.serial", itersSerial, main, false, serialLoop(main.f["csrvi"]))
	r.rounds(xp, "serial.rounds", r.share(2*shareExtra), serialDU, serialVI)
	serialMS := map[string]float64{"csr": serial.summary().Median, "csrdu": serialDU.summary().Median, "csrvi": serialVI.summary().Median}
	parMS := map[string]float64{}
	for key, s := range par {
		parMS[key] = s.summary().Median
	}
	probe, err := roofline.Probe(roofline.ProbeOptions{MaxThreads: r.T, Budget: probeBudget})
	if err != nil {
		return fmt.Errorf("roofline.Probe: %w", err)
	}
	roofN := 0.0
	for _, res := range probe.Results {
		if res.Kernel != roofline.KernelTriad {
			continue
		}
		if res.Threads == 1 {
			r.set("roofline.triad_gbps_t1", res.MeanGBps)
		}
		if res.Threads == r.T {
			roofN = res.MeanGBps
			r.set("roofline.triad_gbps_tN", res.MeanGBps)
		}
	}
	wsOverLLC := 0.0
	if r.host.LLCBytes > 0 {
		wsOverLLC = float64(r.ws[def.name]) / float64(r.host.LLCBytes)
	}
	r.set("host.ws_over_llc", wsOverLLC)
	roofNote := ""
	if wsOverLLC < 1 {
		roofNote = "in-llc" // not a memory-bandwidth figure: the working set fits the last-level cache
	}
	for _, fn := range formatNames {
		f := main.f[fn.key]
		bytes := obs.BytesPerSpMV(f)
		gbps := obs.GBps(bytes, parMS[fn.key]/1e3)
		r.set(fn.key+".serial_ns_per_nnz", serialMS[fn.key]*1e6/nnz)
		r.setNote(fn.key+".bytes_per_spmv", float64(bytes), "computed")
		r.setNote(fn.key+".gbps", gbps, "computed bytes / measured s")
		if roofN > 0 {
			r.setNote(fn.key+".pct_roof", 100*gbps/roofN, roofNote)
		}
		r.set("parallel.speedup_"+fn.key, serialMS[fn.key]/parMS[fn.key])
		if fn.key != "csr" {
			r.set(fn.key+".size_ratio", float64(f.SizeBytes())/float64(csrF.SizeBytes()))
		}
	}
	r.set("csrdu.spmm8_ns_per_nnz_vec", spmm.summary().Median*1e6/nnz/panelWidth)

	if err := r.autotuneLayers(xp, solve, main, parMS); err != nil {
		return err
	}
	if err := r.scheduleLayers(xp, main, xb, yb, panelOK); err != nil {
		return err
	}
	r.set("solver.iterations", float64(cg.iterations))
	r.set("solver.ms_per_iter", cg.solve.Median*1e3/float64(cg.iterations))
	r.set("solver.spmv_share", cg.mulShare)
	r.set("vec.ms_per_iter", cg.solve.Median*1e3*(1-cg.mulShare)/float64(cg.iterations))
	r.set("solver.true_residual", cg.residual)
	return nil
}

// autotuneLayers measures the autotuner on m: what the tuning and the
// build of its choice cost, how fast the chosen format multiplies under
// the scheduler hints of its report, and its regret against the fastest
// of the three formats on the same matrix (mainMS when m is the main
// matrix, measured here otherwise). It is a layer, not an end-to-end
// metric: csr-du-vi, which the tuner picks on both stencils, moves 37-51
// ms between identical runs of stencil-mt (its reuse window sits at the
// L2 size, so the run's page colouring decides), which no bound holds.
func (r *run) autotuneLayers(parent int64, m, main *built, mainMS map[string]float64) error {
	// spmv.Build(WithAutoFormat) is Tune followed by Build of the chosen
	// spec; the Build is repeated on its own to split the two.
	var rep spmv.TuneReport
	var tuned core.Format
	var err error
	settle()
	tuneBuild := r.layer(parent, "autotune.tune_build", func() {
		tuned, err = spmv.Build(m.c, spmv.WithAutoFormat(), spmv.WithTuneReport(&rep))
	})
	if err != nil {
		return fmt.Errorf("autotuned build: %w", err)
	}
	if err := core.Verify(tuned); err != nil {
		return fmt.Errorf("verify autotuned %s: %w", tuned.Name(), err)
	}
	settle()
	d := r.layer(parent, "autotune.build", func() { _, err = autotune.Build(m.c, rep.Chosen) })
	if err != nil {
		return fmt.Errorf("autotune.Build: %w", err)
	}
	r.set("autotune.build_s", d.Seconds())
	r.set("autotune.tune_s", (tuneBuild - d).Seconds())
	r.logf("autotuner chose %s (partition %q, steal %v) for %dx%d", tuned.Name(), rep.Chosen.Partition, rep.Chosen.Steal, m.c.Rows(), m.c.Cols())

	e, err := parallel.New(tuned, parallel.ExecOptions{Threads: r.T, Partition: rep.Chosen.Partition, Steal: rep.Chosen.Steal})
	if err != nil { // the hint may not apply to the built format; the server falls back the same way
		e, err = parallel.New(tuned, parallel.ExecOptions{Threads: r.T})
	}
	if err != nil {
		return fmt.Errorf("executor for autotuned %s: %w", tuned.Name(), err)
	}
	defer e.Close()
	if err := e.RunIters(warmupIters, m.y, m.x); err != nil {
		return fmt.Errorf("warm-up autotuned %s: %w", tuned.Name(), err)
	}
	ss := []*sampler{multiplySampler("parallel.run_auto", itersParallel, m, false,
		func(n int) error { return e.RunIters(n, m.y, m.x) })}
	if m != main {
		for _, fn := range formatNames {
			fe := m.ex[fn.key]
			ss = append(ss, multiplySampler("parallel.run_"+fn.key+"_spd", itersParallel, m, fn.key == "csr",
				func(n int) error { return fe.RunIters(n, m.y, m.x) }))
		}
	}
	r.rounds(parent, "autotune.rounds", r.share(shareAuto), ss...)
	best := math.Inf(1)
	for i, fn := range formatNames {
		ms := mainMS[fn.key]
		if m != main {
			ms = ss[i+1].summary().Median
		}
		best = math.Min(best, ms)
	}
	auto := ss[0].summary().Median
	r.set("autotune.spmv_auto_ms", auto)
	r.set("autotune.regret", auto/best)
	return nil
}

// scheduleLayers measures what the scheduler adds or loses: dispatch
// cost on a matrix with no work, chunk imbalance, and CSR under the
// nnz-split and work-stealing schedules.
func (r *run) scheduleLayers(parent int64, main *built, xb, yb []float64, panelOK func() bool) error {
	// One Run on a T-row diagonal matrix is wake + barrier and nothing else.
	diag := core.NewCOO(r.T, r.T)
	for i := 0; i < r.T; i++ {
		diag.Add(i, i, 1)
	}
	diag.Finalize()
	df, err := formats.Build("csr", diag)
	if err != nil {
		return fmt.Errorf("build diagonal: %w", err)
	}
	de, err := parallel.New(df, parallel.ExecOptions{Threads: r.T})
	if err != nil {
		return fmt.Errorf("executor on diagonal: %w", err)
	}
	dx, dy := make([]float64, r.T), make([]float64, r.T)
	for i := range dx {
		dx[i] = float64(i + 1)
	}
	const dispatchRuns = 2000
	var us []float64
	for s := 0; s < 10; s++ {
		d := r.layer(parent, "parallel.dispatch", func() {
			for i := 0; i < dispatchRuns && err == nil; i++ {
				err = de.Run(dy, dx)
			}
		})
		ok := err == nil && agrees(dy, dx, nil, 1)
		r.op(dispatchRuns, ok)
		if ok {
			us = append(us, d.Seconds()*1e6/dispatchRuns)
		}
	}
	de.Close()
	if len(us) > 0 {
		r.set("parallel.dispatch_us", summarize(us).Median)
	}

	rec := obs.NewRecorder()
	csrEx := main.ex["csr"]
	csrEx.SetCollector(rec)
	poison(main.y)
	err = csrEx.RunIters(itersParallel, main.y, main.x)
	csrEx.SetCollector(nil)
	ok := err == nil && agrees(main.y, main.yref, nil, 1)
	r.op(itersParallel, ok)
	if ok {
		r.set("parallel.imbalance_csr", rec.Snapshot().MeanTimeImbalance)
	}

	for _, sch := range []struct {
		metric string
		opts   parallel.ExecOptions
	}{
		{"parallel.nnz_ms", parallel.ExecOptions{Threads: r.T, Partition: "nnz"}},
		{"parallel.steal_ms", parallel.ExecOptions{Threads: r.T, Steal: true}},
	} {
		e, err := parallel.New(main.f["csr"], sch.opts)
		if err != nil {
			return fmt.Errorf("%s executor: %w", sch.metric, err)
		}
		if err := e.RunIters(warmupIters, main.y, main.x); err != nil {
			e.Close()
			return fmt.Errorf("%s warm-up: %w", sch.metric, err)
		}
		name := "parallel.run_" + sch.opts.Partition
		if sch.opts.Steal {
			name = "parallel.run_steal"
		}
		run := multiplySampler(name, itersParallel, main, false, func(n int) error { return e.RunIters(n, main.y, main.x) })
		ss := []*sampler{run}
		var batch *sampler
		if sch.opts.Partition == "nnz" {
			batch = &sampler{name: "parallel.runbatch_nnz", iters: 1, prep: func() { poison(yb) }, check: panelOK,
				multiply: func(n int) error { return e.RunBatchIters(n, yb, xb, panelWidth) }}
			ss = append(ss, batch)
		}
		r.rounds(parent, name+".rounds", r.share(shareExtra*float64(len(ss))), ss...)
		r.set(sch.metric, run.summary().Median)
		if batch != nil {
			r.set("parallel.spmm8_nnz_ms", batch.summary().Median)
		}
		e.Close()
	}
	return nil
}

// cgResult is what the CG phase measured.
type cgResult struct {
	solve      summary // seconds per solve
	iterations int
	mulShare   float64 // share of the solve spent inside Operator.Mul
	residual   float64 // independently computed ||b-Ax||/||b||
}

// solvePhase runs spmv.CG to relative residual cgTolerance from x=0
// with b_i = 1 + i mod 7, CSR through the T-thread executor, and checks
// each solution by a residual computed with the serial kernel.
func (r *run) solvePhase(parent int64, m *built) (cgResult, error) {
	settle()
	ph := r.tr.start(parent, "solver.cg.phase")
	defer r.tr.end(ph)
	n := m.c.Rows()
	b := make([]float64, n)
	var normB float64
	for i := range b {
		b[i] = 1 + float64(i%7)
		normB += b[i] * b[i]
	}
	normB = math.Sqrt(normB)
	x := make([]float64, n)
	ax := make([]float64, n)
	var out cgResult
	var secs []float64
	deadline := time.Now().Add(r.share(shareCG))
	for s := 0; s < maxSolves && (s == 0 || time.Now().Before(deadline)); s++ {
		for i := range x {
			x[i] = 0
		}
		op := spmv.NewParallelOperator(m.ex["csr"], n)
		var mulTime time.Duration
		var solveSpan int64
		if r.traced() { // one span per multiply, so the solve splits into spmv and vec time
			mul := op.Mul
			op.Mul = func(y, x []float64) (err error) {
				mulTime += r.layer(solveSpan, "solver.mul", func() { err = mul(y, x) })
				return err
			}
		}
		solveSpan = r.tr.start(ph, "solver.cg")
		start := time.Now()
		res, err := spmv.CG(op, b, x, cgTolerance, cgMaxIter)
		d := time.Since(start)
		r.tr.end(solveSpan)
		if err != nil {
			return out, fmt.Errorf("spmv.CG: %w", err)
		}
		m.f["csr"].SpMV(ax, x)
		var rr float64
		for i := range ax {
			rr += (b[i] - ax[i]) * (b[i] - ax[i])
		}
		resid := math.Sqrt(rr) / normB
		ok := res.Converged && resid <= 1.1*cgTolerance
		r.op(1, ok)
		if !ok {
			r.logf("CG solve %d failed: converged=%v true residual %.3g", s, res.Converged, resid)
			continue
		}
		secs = append(secs, d.Seconds())
		out.iterations, out.residual = res.Iterations, resid
		out.mulShare = mulTime.Seconds() / d.Seconds()
	}
	out.solve = summarize(secs)
	return out, nil
}
