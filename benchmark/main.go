// Command benchmark is the repository's one performance instrument: the
// workloads, metrics and bounds BENCHMARK.json declares. README.md in
// this directory defines every workload and metric and says how to run
// it untraced, traced, and as a comparison of two sets of runs.
//
//	go run ./benchmark -workload all -seed 1 [-trace] [-out runs.json]
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// parts are the four named pieces of work; a workload runs its parts in
// order, in one process.
var parts = map[string]func(r *run) error{
	stencilMT.name:   func(r *run) error { return r.runKernelPart(stencilMT) },
	scatterMT.name:   func(r *run) error { return r.runKernelPart(scatterMT) },
	serveWire.name:   func(r *run) error { return r.runServePart(serveWire) },
	serveKernel.name: func(r *run) error { return r.runServePart(serveKernel) },
}

// job is one thing -workload can name: a workload of BENCHMARK.json, or
// one part on its own under its own name.
type job struct {
	name  string
	parts []string
}

// workloads are what BENCHMARK.json lists. The run contract wants every
// metric on every workload, so each pairs one -mt part with one server
// part: the first is bound by the matrix stream end to end, the second
// by everything else (x-gather latency, schedule imbalance, wire decode,
// dispatch). README.md has the reasoning.
var workloads = []job{
	{"stencil-mt.serve-kernel", []string{stencilMT.name, serveKernel.name}},
	{"scatter-mt.serve-wire", []string{scatterMT.name, serveWire.name}},
}

// resolve maps -workload to the jobs it names: a workload of
// BENCHMARK.json, "all" of them, or a single part.
func resolve(name string) ([]job, error) {
	var out []job
	for _, w := range workloads {
		if name == w.name || name == "all" {
			out = append(out, w)
		}
	}
	if _, ok := parts[name]; ok {
		out = append(out, job{name, []string{name}})
	}
	if out == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return out, nil
}

// workloadResult is one workload of one run, as the result file keeps it.
type workloadResult struct {
	Correct         bool               `json:"correct"`
	Attempted       int64              `json:"attempted"`
	Failed          int64              `json:"failed"`
	WorkingSetBytes map[string]int64   `json:"working_set_bytes"`
	WsOverLLC       map[string]float64 `json:"ws_over_llc"`
	Metrics         map[string]value   `json:"metrics"`
}

// runRecord is one invocation; a result file is a list of them, and
// -out appends, so a file holds a set of runs for -compare.
type runRecord struct {
	Time      string                    `json:"time"`
	Seed      int64                     `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Traced    bool                      `json:"traced"`
	Scale     string                    `json:"scale"`
	Host      hostInfo                  `json:"host"`
	Config    map[string]int64          `json:"config"`
	Workloads map[string]workloadResult `json:"workloads"`
}

// resultLine is the last line of standard output, as the run contract
// fixes it.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// joinBoolArg lets the run contract's "--trace 0" and "--trace 1" reach
// a boolean flag, which the flag package only reads as "-trace=0".
func joinBoolArg(args []string, name string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-"+name || a == "--"+name) && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				a += "=" + args[i+1]
				i++
			}
		}
		out = append(out, a)
	}
	return out
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload of BENCHMARK.json, one of its parts, or all")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", defaultSeconds, "how long the timed phases of one workload measure")
	trace := fs.Bool("trace", false, "traced run: spans around every layer call, per-layer metrics")
	out := fs.String("out", "", "append this run to a result file")
	traceDir := fs.String("tracedir", ".", "where the traced run writes trace_<workload>.json")
	smoke := fs.Bool("smoke", false, "tiny inputs, for the test suite")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	spec := fs.String("spec", "BENCHMARK.json", "the bounds -compare applies")
	if err := fs.Parse(joinBoolArg(args, "trace")); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compareFiles(*spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: unexpected arguments", fs.Args())
		return 2
	}
	todo, err := resolve(*workload)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	sc := fullScale
	if *smoke {
		sc = smokeScale
	}
	host := readHost()
	runtime.GOMAXPROCS(host.T) // workers and connections are both T; nothing else gets a processor

	rec := runRecord{
		Time: time.Now().UTC().Format(time.RFC3339), Seed: *seed, Seconds: *seconds, Traced: *trace,
		Scale: sc.Name, Host: host, Workloads: map[string]workloadResult{},
		Config: map[string]int64{"gomaxprocs": int64(host.T), "connections": int64(host.T),
			"server_memory_budget": serverMemoryBudget, "server_max_upload_bytes": serverMaxUploadBytes},
	}
	status := 0
	for _, w := range todo {
		name := w.name
		r := &run{workload: name, T: host.T, seed: *seed, seconds: *seconds, sc: sc, host: host, log: stderr,
			metrics: map[string]value{}, ws: map[string]int64{}}
		if *trace {
			r.tr = newTracer(name)
		}
		for _, pn := range w.parts {
			r.logf("part %s", pn)
			if err := parts[pn](r); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %s: %v\n", name, pn, err)
				return 1
			}
			settle() // the next part starts without this part's matrices
		}
		if r.traced() {
			r.set("runtime.peak_rss_mb", peakRSSMB())
			path := filepath.Join(*traceDir, "trace_"+name+".json")
			if err := r.tr.write(path); err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			r.logf("%d spans written to %s", len(r.tr.spans), path)
		} else {
			r.set("setup_s", r.setup.Seconds())
		}
		res, line := r.result(len(w.parts) > 1)
		rec.Workloads[name] = res
		printTables(stdout, r, res)
		b, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(b))
		if res.Failed > 0 {
			status = 1
		}
	}
	if *out != "" {
		if err := appendRun(*out, rec); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	return status
}

// result turns what the parts measured into the result-file entry and
// the contract's result line. A full workload reports every metric of
// its run kind, so one the parts left unset is recorded as not
// applicable (per-layer) or is a bug (end-to-end); a part run on its own
// reports only what it measured.
func (r *run) result(full bool) (workloadResult, resultLine) {
	defs := endToEnd
	if r.traced() {
		defs = perLayer
	}
	res := workloadResult{
		Attempted: r.attempted.Load(), Failed: r.failed.Load(),
		WorkingSetBytes: r.ws, WsOverLLC: map[string]float64{}, Metrics: map[string]value{},
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for p, ws := range r.ws {
		if r.host.LLCBytes > 0 {
			res.WsOverLLC[p] = float64(ws) / float64(r.host.LLCBytes)
		}
	}
	line := resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]lineMetric{}}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok {
			if !full {
				continue
			}
			v = value{Unit: d.Unit, Note: "n/a on this workload"}
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) { // every sample failed its check
			v.Value, v.Note = 0, "no valid sample"
		}
		res.Metrics[d.Name] = v
		line.Metrics[d.Name] = lineMetric{Value: v.Value, Unit: v.Unit}
	}
	return res, line
}

func printTables(w io.Writer, r *run, res workloadResult) {
	kind := "untraced: end-to-end metrics"
	defs := endToEnd
	if r.traced() {
		kind, defs = "traced: per-layer metrics", perLayer
	}
	fmt.Fprintf(w, "\nworkload %s  seed %d  scale %s  T %d  seconds %g  (%s)\n", r.workload, r.seed, r.sc.Name, r.T, r.seconds, kind)
	fmt.Fprintf(w, "  host: nproc %d, %s, L2 %d B, LLC %d B\n", r.host.NProc, r.host.GoVersion, r.host.L2Bytes, r.host.LLCBytes)
	var names []string
	for p := range r.ws {
		names = append(names, p)
	}
	sort.Strings(names)
	for _, p := range names {
		fmt.Fprintf(w, "  %s: CSR working set %d B, host.ws_over_llc %.3f\n", p, r.ws[p], res.WsOverLLC[p])
	}
	fmt.Fprintf(w, "  operations attempted %d, failed %d\n", res.Attempted, res.Failed)
	if r.traced() {
		fmt.Fprintf(w, "  %-34s %8s %12s %12s\n", "span", "count", "total s", "self s")
		for _, l := range selfTimes(r.tr.spans) {
			fmt.Fprintf(w, "  %-34s %8d %12.4f %12.4f\n", l.Name, l.Count, l.Total.Seconds(), l.Self.Seconds())
		}
	}
	fmt.Fprintf(w, "  %-30s %-6s %14s %14s %7s  %s\n", "metric", "unit", "median", "p90", "n", "")
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			continue
		}
		p90, n := "-", "-"
		if v.N > 0 {
			n = fmt.Sprint(v.N)
		}
		if v.P90 > 0 {
			p90 = fmt.Sprintf("%.6g", v.P90)
		}
		fmt.Fprintf(w, "  %-30s %-6s %14.6g %14s %7s  %s\n", d.Name, v.Unit, v.Value, p90, n, v.Note)
	}
}

// appendRun adds rec to the list of runs in path, creating the file.
func appendRun(path string, rec runRecord) error {
	runs, err := readRuns(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	b, err := json.MarshalIndent(append(runs, rec), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func readRuns(path string) ([]runRecord, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var runs []runRecord
	if err := json.Unmarshal(b, &runs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return runs, nil
}
