// Command spmvbench runs the paper's experiments with wall-clock
// timing on the host machine: real goroutines, real caches. Shapes
// depend on the host's memory system; for the deterministic
// reproduction of the paper's platform use cmd/spmvsim.
//
// Usage:
//
//	spmvbench [-experiment all|table2|table3|table4|fig7|fig8]
//	          [-scale 0.25] [-iters 10] [-threads 1,2,4,8] [-v]
//	          [-metrics] [-debug localhost:6060]
//	          [-rhs 1,2,4,8] [-rhsmatrix banded-l-q128]
//	          [-profile] [-matrix banded-l-q128] [-format csr-du]
//	          [-auto]
//	          [-trace out.trace] [-timeline out.json]
//	          [-archive FILE|DIR] [-compare OLD.json]
//	          [-samples 5] [-slowdown 0.10]
//	          [-partition row|nnz]
//	          [-roofprobe] [-probe-ms 0] [-roofline] [-roofdir benchdata]
//
// With -auto the experiments are replaced by the autotuner: each suite
// matrix named by -matrix (comma-separated) is tuned at the largest
// -threads count (the paper's formats timed against CSR), the winner is
// verified, and the TuneReport decision traces are emitted as one JSON
// array on stdout.
//
// With -roofprobe the experiments are replaced by the STREAM-style
// measured-bandwidth probe: copy/scale/triad at 1..max(-threads)
// goroutines, written as benchdata/ROOF_<host>.json (or -roofdir).
// -probe-ms bounds the probe's wall time (the working set shrinks to
// fit; every cell still reports). When a previous archive exists the
// probe Welch-tests bandwidth drift against it before overwriting.
//
// With -roofline the paper tables are replaced by the roofline table:
// every measured cell's effective GB/s against the host's bandwidth
// ceiling at that thread count (%roof), using the -roofdir probe
// archive when present and the analytic machine peak otherwise.
// Combined with -metrics the JSON report carries the same
// ceiling_gbps/pct_roofline fields per cell instead.
//
// With -partition nnz chunk boundaries are placed every nnz/threads
// stored elements, splitting long rows across workers (CSR only;
// other formats fall back to row partitioning).
//
// With -rhs the tables are replaced by the multi-RHS sweep: batched
// SpMV (RunBatch) over row-major n×k panels at each listed k, per
// format, reporting seconds and modeled bytes per result vector. The
// matrix stream is read once per multiplication regardless of k, so
// bytes-per-vector falls towards the dense-vector floor as k grows.
//
// With -metrics the tables are replaced by a single JSON document on
// stdout: per matrix, per format and per thread count the measured
// seconds per iteration, effective bandwidth (GB/s), static and
// measured load imbalance, compressed size ratio and the last run's
// per-chunk telemetry. Progress notes move to stderr so stdout stays
// machine-parseable.
//
// With -profile the experiments are replaced by a structural profile
// of one (matrix, format) cell: the format's per-stream byte split of
// the §II-B traffic model (reconciling exactly with the model's
// working-set total), the CSR-DU ctl-unit and CSR-VI dictionary
// statistics where applicable, and — after a measured run at the
// highest requested thread count — a bandwidth attribution telling
// which stream dominates. Combined with -roofline the attribution is
// anchored to the host ceiling (ceiling_gbps / pct_roofline fields).
// JSON on stdout.
//
// With -trace FILE the measured loops are recorded with runtime/trace:
// one task per Run and one region per chunk per worker (viewable with
// `go tool trace FILE`). With -timeline FILE a per-iteration JSON
// time series (wall seconds and load imbalance per measured run) is
// written.
//
// With -archive PATH the measured cells are written as a benchmark
// archive (BENCH_<host>.json when PATH is a directory); -compare
// OLD.json checks this run against a previous archive and exits 1 on a
// statistically significant slowdown beyond -slowdown. Archive and
// compare modes repeat each cell -samples times (default 5) so the
// comparator has a spread to test.
//
// With -debug ADDR a background HTTP server exposes Go's standard
// debug endpoints while the benchmark runs: /debug/vars (expvar,
// including the live "spmv" telemetry snapshot) and /debug/pprof
// (CPU/heap profiles; worker goroutines carry spmv_partition and
// spmv_worker pprof labels).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/exec"
	"runtime"
	rtrace "runtime/trace"
	"slices"
	"strconv"
	"strings"
	"time"

	"spmv/internal/autotune"
	"spmv/internal/bench"
	"spmv/internal/core"
	"spmv/internal/obs"
	"spmv/internal/prof"
	"spmv/internal/prof/archive"
	"spmv/internal/roofline"
)

// archiveMeta collects the provenance of an archive record: hostname,
// platform and — best-effort, ignoring errors outside a git checkout —
// the current commit.
func archiveMeta() bench.ArchiveMeta {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	sha := ""
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		sha = strings.TrimSpace(string(out))
	}
	return bench.ArchiveMeta{
		Host:   host,
		GoOS:   runtime.GOOS,
		GoArch: runtime.GOARCH,
		GitSHA: sha,
		Date:   time.Now().UTC().Format(time.RFC3339),
	}
}

func main() {
	experiment := flag.String("experiment", "all", "table2|table3|table4|fig7|fig8|all")
	scale := flag.Float64("scale", 0.25, "matrix size multiplier (1.0 = paper scale)")
	iters := flag.Int("iters", 10, "timed iterations per configuration")
	threads := flag.String("threads", "1,2,4,8", "comma-separated thread counts")
	verbose := flag.Bool("v", false, "print per-matrix progress")
	verify := flag.Bool("verify", false, "structurally verify every built format before timing it")
	metrics := flag.Bool("metrics", false, "emit a JSON metrics report on stdout instead of tables")
	debugAddr := flag.String("debug", "", "serve expvar and pprof on this address (e.g. localhost:6060)")
	rhs := flag.String("rhs", "", "comma-separated RHS panel widths: run the batched multi-vector sweep instead of the tables")
	rhsMatrix := flag.String("rhsmatrix", "banded-l-q128", "suite matrix for the -rhs sweep")
	profileFlag := flag.Bool("profile", false, "emit the structural profile of one (matrix, format) cell as JSON instead of running experiments")
	matrixName := flag.String("matrix", "banded-l-q128", "suite matrix for -profile")
	formatName := flag.String("format", "csr-du", "format for -profile")
	traceFile := flag.String("trace", "", "record the measured loops with runtime/trace into this file")
	timelineFile := flag.String("timeline", "", "write a per-iteration JSON time series to this file")
	archivePath := flag.String("archive", "", "write a benchmark archive to this file (or BENCH_<host>.json inside this directory)")
	comparePath := flag.String("compare", "", "compare this run against a previous archive file; exit 1 on regression")
	samples := flag.Int("samples", 0, "repeated measurements per cell (default 5 with -archive/-compare)")
	slowdown := flag.Float64("slowdown", 0.10, "fractional slowdown -compare treats as a regression")
	partitionFlag := flag.String("partition", "", "execution scheme: row (default) or nnz (non-zero-split boundaries; CSR only, other formats fall back to row)")
	auto := flag.Bool("auto", false, "autotune the -matrix suite matrices (comma-separated) and emit the TuneReport decision traces as JSON")
	roofProbe := flag.Bool("roofprobe", false, "measure the host's STREAM bandwidth and write ROOF_<host>.json into -roofdir instead of running experiments")
	probeMS := flag.Int("probe-ms", 0, "with -roofprobe, wall-clock budget for the probe in milliseconds (0 = unbudgeted ~32 MiB arrays)")
	roofFlag := flag.Bool("roofline", false, "print the roofline table (measured GB/s vs host ceiling per cell) instead of the paper tables")
	roofDir := flag.String("roofdir", "benchdata", "directory holding the per-host ROOF_<host>.json probe archives")
	flag.Parse()

	cfg := bench.DefaultConfig()
	cfg.Native = true
	cfg.Scale = *scale
	cfg.WarmIters = *iters
	cfg.Verify = *verify
	cfg.Metrics = *metrics
	cfg.Samples = *samples
	cfg.Partition = *partitionFlag

	// Archive and compare modes need per-cell traffic metrics and, for a
	// meaningful significance test, repeated samples.
	archMode := *archivePath != "" || *comparePath != ""
	if archMode {
		cfg.Metrics = true
		if cfg.Samples <= 0 {
			cfg.Samples = 5
		}
		// The archive follows the whole CSR-DU family: csr-du-vi is the
		// format the autotuner picks on stencils.
		if !slices.Contains(cfg.Formats, "csr-du-vi") {
			cfg.Formats = append(cfg.Formats, "csr-du-vi")
		}
	}

	// With -metrics or -profile, stdout carries exactly one JSON
	// document; archive mode prints the comparison there. All
	// human-facing notes go to stderr in those modes.
	notes := os.Stdout
	if *metrics || *profileFlag || archMode || *auto {
		notes = os.Stderr
	}
	note := func(format string, args ...any) {
		if _, err := fmt.Fprintf(notes, format, args...); err != nil {
			os.Exit(1)
		}
	}
	if *verbose {
		cfg.Verbose = os.Stderr
	}
	cfg.Threads = nil
	for _, t := range strings.Split(*threads, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(t))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "spmvbench: bad thread count %q\n", t)
			os.Exit(2)
		}
		cfg.Threads = append(cfg.Threads, n)
	}

	if *debugAddr != "" {
		rec := obs.NewRecorder()
		cfg.Recorder = rec
		if err := obs.PublishExpvar("spmv", rec); err != nil {
			fmt.Fprintln(os.Stderr, "spmvbench:", err)
			os.Exit(1)
		}
		go func() {
			// DefaultServeMux already carries /debug/vars (expvar) and
			// /debug/pprof (net/http/pprof) via their package inits.
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "spmvbench: debug server:", err)
			}
		}()
		note("# debug: http://%s/debug/vars and /debug/pprof\n", *debugAddr)
	}

	die := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "spmvbench:", err)
			os.Exit(1)
		}
	}

	// -roofprobe: measure the host's bandwidth ceilings and persist the
	// probe archive; experiments are skipped.
	if *roofProbe {
		maxTh := cfg.Threads[len(cfg.Threads)-1]
		note("# roofprobe: STREAM copy/scale/triad at 1..%d threads (budget %dms)\n", maxTh, *probeMS)
		f, err := roofline.Probe(roofline.ProbeOptions{
			MaxThreads: maxTh,
			Budget:     time.Duration(*probeMS) * time.Millisecond,
		})
		die(err)
		die(os.MkdirAll(*roofDir, 0o755))
		path := roofline.DefaultPath(*roofDir, f.Host)
		if old, err := roofline.ReadFile(path); err == nil {
			regs, derr := roofline.Drift(old, f, 0)
			die(derr)
			if len(regs) > 0 {
				note("# roofprobe: %d cell(s) drifted significantly vs previous %s\n", len(regs), path)
			}
		}
		die(roofline.WriteFile(path, f))
		fmt.Printf("Roofline probe: %s (%s/%s, %d cores, arrays %d elems)\n",
			f.Host, f.GoOS, f.GoArch, f.Cores, f.Results[0].ArrayLen)
		fmt.Printf("%-8s %3s | %10s %10s\n", "kernel", "th", "GB/s", "stddev")
		for _, r := range f.Results {
			fmt.Printf("%-8s %3d | %10.3f %10.3f\n", r.Kernel, r.Threads, r.MeanGBps, r.StddevGBps)
		}
		m, err := roofline.FromFile(f)
		die(err)
		fmt.Printf("ceilings:")
		for t := 1; t <= m.MaxThreads(); t++ {
			if c, ok := m.Ceilings[t]; ok {
				fmt.Printf("  t%d=%.3f", t, c)
			}
		}
		fmt.Println(" GB/s")
		note("# roofprobe: wrote %s\n", path)
		return
	}

	// -roofline: anchor every measured cell to the host's bandwidth
	// model — the probe archive when one exists, the analytic machine
	// peak otherwise.
	if *roofFlag {
		cfg.Metrics = true
		m, err := roofline.Load(*roofDir)
		if err != nil {
			m = roofline.Analytic(cfg.Machine)
			note("# roofline: no probe archive in %s; using analytic peak %.2f GB/s (run -roofprobe to measure)\n",
				*roofDir, m.CeilingGBps(0))
		}
		cfg.Roofline = m
	}

	// -trace: record the measured loops. The executors emit trace tasks
	// and regions only when a collector is attached, so ensure one is.
	// stopTrace is called once, right after measurement, so the exits on
	// the output paths cannot lose buffered trace data.
	stopTrace := func() {}
	if *traceFile != "" {
		tf, err := os.Create(*traceFile)
		die(err)
		if cfg.Recorder == nil {
			cfg.Recorder = obs.NewRecorder()
		}
		die(rtrace.Start(tf))
		stopTrace = func() {
			rtrace.Stop()
			die(tf.Close())
			note("# trace: wrote %s\n", *traceFile)
		}
	}

	// -timeline: a prof.Series collector sees every measured run.
	var series *prof.Series
	if *timelineFile != "" {
		series = prof.NewSeries(0)
		cfg.Collector = series
	}
	writeTimeline := func() {
		if series == nil {
			return
		}
		tf, err := os.Create(*timelineFile)
		die(err)
		die(series.WriteJSON(tf))
		die(tf.Close())
		note("# timeline: wrote %s (%d runs)\n", *timelineFile, series.Doc().Summary.Runs)
	}

	if *auto {
		th := cfg.Threads[len(cfg.Threads)-1]
		type autoCell struct {
			Matrix string           `json:"matrix"`
			Report *autotune.Report `json:"report"`
		}
		var cells []autoCell
		for _, name := range strings.Split(*matrixName, ",") {
			name = strings.TrimSpace(name)
			spec, err := bench.FindSpec(name)
			die(err)
			c := spec.Gen(cfg.Scale)
			note("# auto: tuning %s (%d x %d, %d nnz) at %d threads\n",
				name, c.Rows(), c.Cols(), c.Len(), th)
			f, rep, err := autotune.Tune(c, autotune.Options{Threads: th})
			die(err)
			if err := core.Verify(f); err != nil {
				die(fmt.Errorf("auto: %s: chosen %s failed verify: %w", name, rep.Chosen.Name(), err))
			}
			ch := rep.Choice()
			note("# auto: %s -> %s (%d bytes, %.3f ns/nnz, %.3f of csr)\n",
				name, ch.Spec.Name(), ch.Bytes, ch.NsPerNNZ, ch.Ratio)
			cells = append(cells, autoCell{Matrix: name, Report: rep})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		die(enc.Encode(cells))
		return
	}

	if *profileFlag {
		th := cfg.Threads[len(cfg.Threads)-1]
		p, err := bench.ProfileCell(cfg, *matrixName, *formatName, th)
		stopTrace()
		die(err)
		writeTimeline()
		die(p.WriteJSON(os.Stdout))
		return
	}

	if *rhs != "" {
		var ks []int
		for _, s := range strings.Split(*rhs, ",") {
			k, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || k <= 0 {
				fmt.Fprintf(os.Stderr, "spmvbench: bad rhs count %q\n", s)
				os.Exit(2)
			}
			ks = append(ks, k)
		}
		threads := cfg.Threads[len(cfg.Threads)-1]
		note("# spmvbench: multi-RHS sweep, scale=%.3g, %d iterations, %d threads\n\n",
			cfg.Scale, cfg.WarmIters, threads)
		points, err := bench.RHSSweep(cfg, *rhsMatrix, threads, ks)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spmvbench:", err)
			os.Exit(1)
		}
		if err := bench.PrintRHS(os.Stdout, points, *rhsMatrix, threads); err != nil {
			fmt.Fprintln(os.Stderr, "spmvbench:", err)
			os.Exit(1)
		}
		return
	}

	need := map[string]bool{}
	for _, e := range strings.Split(*experiment, ",") {
		need[e] = true
	}
	if need["all"] {
		for _, e := range []string{"table2", "table3", "table4", "fig7", "fig8"} {
			need[e] = true
		}
	}

	note("# spmvbench: native timing, scale=%.3g, %d iterations\n", cfg.Scale, cfg.WarmIters)
	note("# note: the 2(2xL2) placement row requires cache control and exists only in spmvsim\n\n")
	runs, err := bench.Collect(cfg)
	stopTrace()
	if err != nil {
		fmt.Fprintln(os.Stderr, "spmvbench:", err)
		os.Exit(1)
	}
	writeTimeline()

	emit := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "spmvbench:", err)
			os.Exit(1)
		}
	}
	if archMode {
		file := bench.ArchiveRecords(cfg, runs, archiveMeta())
		if *archivePath != "" {
			path := *archivePath
			if st, err := os.Stat(path); err == nil && st.IsDir() {
				path = archive.DefaultPath(path, file.Host)
			}
			emit(archive.Write(path, file))
			note("# archive: wrote %s (%d records)\n", path, len(file.Records))
		}
		if *comparePath != "" {
			old, err := archive.Load(*comparePath)
			emit(err)
			results, err := archive.Compare(old.Records, file.Records,
				archive.Options{Slowdown: *slowdown})
			emit(err)
			emit(archive.Print(os.Stdout, results))
			if regs := archive.Regressions(results); len(regs) > 0 {
				fmt.Fprintf(os.Stderr, "spmvbench: %d significant regression(s) beyond %.0f%%\n",
					len(regs), *slowdown*100)
				os.Exit(1)
			}
			note("# compare: no significant regressions vs %s\n", *comparePath)
		}
		return
	}
	if *metrics {
		emit(bench.WriteMetricsJSON(os.Stdout, bench.BuildMetricsReport(cfg, runs)))
		return
	}
	if *roofFlag {
		emit(bench.BuildRooflineTable(runs, cfg.Formats, cfg.Threads, cfg.Roofline).Print(os.Stdout))
		return
	}
	if need["table2"] {
		emit(bench.BuildTable2(runs, cfg.Threads).Print(os.Stdout))
		fmt.Println()
	}
	if need["table3"] {
		emit(bench.BuildRelTable(runs, "csr-du", cfg.Threads, 0).Print(os.Stdout, "Table III"))
		fmt.Println()
	}
	if need["table4"] {
		emit(bench.BuildRelTable(runs, "csr-vi", cfg.Threads, 5).Print(os.Stdout, "Table IV"))
		fmt.Println()
	}
	if need["fig7"] {
		emit(bench.PrintFig(os.Stdout, "Fig 7: CSR-DU per-matrix",
			bench.BuildFig(runs, "csr-du", cfg.Threads, 0), cfg.Threads))
		fmt.Println()
	}
	if need["fig8"] {
		emit(bench.PrintFig(os.Stdout, "Fig 8: CSR-VI per-matrix (ttu > 5)",
			bench.BuildFig(runs, "csr-vi", cfg.Threads, 5), cfg.Threads))
		fmt.Println()
	}
}
