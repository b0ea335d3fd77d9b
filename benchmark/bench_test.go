package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

const specPath = "../BENCHMARK.json"

func TestQuantileAgainstExactSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	v := make([]float64, 101)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	// With 101 samples the k-th percentile is exactly the k-th order statistic.
	for k := 0; k <= 100; k++ {
		if got := quantile(s, float64(k)/100); math.Abs(got-s[k]) > 1e-12 {
			t.Fatalf("quantile(%d%%) = %v, order statistic %v", k, got, s[k])
		}
	}
	sum := summarize(v)
	if sum.Median != s[50] || sum.P90 != s[90] || sum.N != 101 {
		t.Fatalf("summarize = %+v, want median %v p90 %v n 101", sum, s[50], s[90])
	}
	if got := quantile([]float64{1, 2, 3, 10}, 0.5); got != 2.5 {
		t.Fatalf("even-length median = %v, want 2.5", got)
	}
	// The quartiles of statistics.quantiles(v, n=4), which the driver uses.
	if got := spread([]float64{1, 2, 3, 4, 5}); got != 1 {
		t.Fatalf("spread(1..5) = %v, want (4.5-1.5)/3", got)
	}
	if got := spread([]float64{3.7, 3.8, 3.9, 4.3, 4.0, 3.7, 3.8, 4.4, 4.3, 5.2}); math.Abs(got-0.13924050632911386) > 1e-12 {
		t.Fatalf("spread = %v, statistics.quantiles gives 0.13924050632911386", got)
	}
}

// A stall in one request must be charged to the requests it delays:
// with one connection and a 50 ms stall on request 0, request 1 (due at
// 10 ms) cannot start before 50 ms, so its latency from the due time is
// at least 40 ms although its own service time is nil.
func TestOpenLoopChargesLatencyFromDueTime(t *testing.T) {
	const rate, stall = 100.0, 50 * time.Millisecond
	var order []int
	res := openLoop(rate, 100*time.Millisecond, 1, func(w, i int, due time.Time) (reqTiming, bool) {
		order = append(order, i)
		if i == 0 {
			time.Sleep(stall)
		}
		return reqTiming{}, i != 3 // request 3 fails: it must miss every latency figure
	})
	if len(order) != 10 {
		t.Fatalf("schedule of 100/s for 100 ms sent %d requests, want 10", len(order))
	}
	if len(res.latencyMS) != 9 || len(res.latenessMS) != 9 {
		t.Fatalf("%d latencies, %d latenesses; want 9 each (one request failed)", len(res.latencyMS), len(res.latenessMS))
	}
	if res.latencyMS[0] < 50 {
		t.Errorf("stalled request latency %.1f ms, want >= 50", res.latencyMS[0])
	}
	if res.latencyMS[1] < 39 || res.latenessMS[1] < 39 {
		t.Errorf("request behind the stall: latency %.1f ms, lateness %.1f ms, want >= 39 each", res.latencyMS[1], res.latenessMS[1])
	}
	if late := pct(res.latenessMS, 0.9); late <= 0 {
		t.Errorf("lateness p90 = %v, want > 0", late)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "phase", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "req", StartNs: 10, EndNs: 50},
		{ID: 3, Parent: 1, Name: "req", StartNs: 30, EndNs: 70}, // overlaps span 2: counted once
		{ID: 4, Parent: 2, Name: "decode", StartNs: 40, EndNs: 50},
	}
	got := map[string]layerTime{}
	for _, l := range selfTimes(spans) {
		got[l.Name] = l
	}
	if l := got["phase"]; l.Total != 100 || l.Self != 40 {
		t.Errorf("phase total %d self %d, want 100 and 40", l.Total, l.Self)
	}
	if l := got["req"]; l.Count != 2 || l.Total != 80 || l.Self != 70 {
		t.Errorf("req count %d total %d self %d, want 2, 80 and 70", l.Count, l.Total, l.Self)
	}
}

func TestJudge(t *testing.T) {
	lower := specMetric{Name: "m", Better: "lower", Bound: 0.05}
	higher := specMetric{Name: "m", Better: "higher", Bound: 0.05}
	a := []float64{100, 101, 102}
	for _, tc := range []struct {
		name string
		b    []float64
		m    specMetric
		want string
	}{
		{"same", []float64{100.5, 101, 101.5}, lower, verdictWithin},
		{"every run faster", []float64{90, 91, 92}, lower, verdictBetter},
		{"slower than the bound", []float64{110, 111, 112}, lower, verdictRegressed},
		{"slower but too noisy to say", []float64{90, 111, 140}, lower, verdictUnresolved},
		{"higher is better: lower reads regressed", []float64{90, 91, 92}, higher, verdictRegressed},
		{"higher is better: higher reads better", []float64{110, 111, 112}, higher, verdictBetter},
	} {
		if got, _ := judge(a, tc.b, tc.m); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestCompareExitsNonZeroOnRegression(t *testing.T) {
	spec, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	wl, m := spec.Workloads[0].Name, spec.EndToEnd[1]
	runs := func(vals ...float64) []runRecord {
		var out []runRecord
		for _, v := range vals {
			out = append(out, runRecord{Workloads: map[string]workloadResult{
				wl: {Metrics: map[string]value{m.Name: {Value: v, Unit: m.Unit}}}}})
		}
		return out
	}
	worse := 1 + 2*m.Bound
	if m.Better == "higher" {
		worse = 1 - 2*m.Bound
	}
	var out bytes.Buffer
	if st := compareRuns(spec, runs(10, 10.01, 10.02), runs(10.01, 10, 10.02), &out); st != 0 {
		t.Errorf("A/A comparison exited %d:\n%s", st, out.String())
	}
	out.Reset()
	if st := compareRuns(spec, runs(10, 10.01, 10.02), runs(10*worse, 10.01*worse, 10.02*worse), &out); st == 0 {
		t.Errorf("regression exited 0:\n%s", out.String())
	}
	if !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("no %q row:\n%s", verdictRegressed, out.String())
	}
}

func TestJoinBoolArg(t *testing.T) {
	got := joinBoolArg([]string{"--workload", "w", "--trace", "0", "-trace", "--seed", "1", "--trace", "1"}, "trace")
	want := []string{"--workload", "w", "--trace=0", "-trace", "--seed", "1", "--trace=1"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("joinBoolArg = %v, want %v", got, want)
	}
}

// TestSpecLimits holds BENCHMARK.json to the limits of the run contract
// and to the metric and workload tables the program emits from.
func TestSpecLimits(t *testing.T) {
	spec, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", spec.RunSeconds, defaultSeconds)
	}
	seen := map[string]bool{}
	check := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q is outside [A-Za-z0-9_.-]", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range spec.Workloads {
		check("workload", w.Name)
		if i >= len(workloads) || workloads[i].name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, not in the program's table", i, w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for kind, pair := range map[string]struct {
		spec []specMetric
		defs []metricDef
	}{"end_to_end": {spec.EndToEnd, endToEnd}, "per_layer": {spec.PerLayer, perLayer}} {
		if len(pair.spec) != len(pair.defs) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(pair.spec), len(pair.defs))
			continue
		}
		for i, m := range pair.spec {
			check(kind, m.Name)
			if m.Name != pair.defs[i].Name || m.Unit != pair.defs[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, m.Name, m.Unit, pair.defs[i].Name, pair.defs[i].Unit)
			}
			if !unit.MatchString(m.Unit) {
				t.Errorf("%s: unit %q", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better %q", m.Name, m.Better)
			}
			if kind == "end_to_end" && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			}
			if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
				hasSetup = true
			}
		}
	}
	if !hasSetup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
}

// TestSmokeRunEmitsEveryMetric runs every workload at the smoke scale,
// untraced and traced, as the driver would, and checks the result line
// carries exactly the metrics BENCHMARK.json names for that kind of run.
func TestSmokeRunEmitsEveryMetric(t *testing.T) {
	spec, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, w := range spec.Workloads {
		for _, traced := range []string{"0", "1"} {
			var stdout bytes.Buffer
			args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "2", "--trace", traced,
				"-smoke", "-tracedir", dir, "-out", filepath.Join(dir, "runs.json")}
			if st := realMain(args, &stdout, io.Discard); st != 0 {
				t.Fatalf("%s --trace %s exited %d:\n%s", w.Name, traced, st, stdout.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var line struct {
				Correct   *bool
				Attempted *int64
				Failed    *int64
				Metrics   map[string]map[string]any
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", w.Name, err)
			}
			if line.Correct == nil || !*line.Correct || line.Attempted == nil || *line.Attempted < 1 || line.Failed == nil || *line.Failed != 0 {
				t.Errorf("%s --trace %s: correct/attempted/failed = %v", w.Name, traced, lines[len(lines)-1][:80])
			}
			want := spec.EndToEnd
			if traced == "1" {
				want = spec.PerLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s --trace %s: %d metrics emitted, BENCHMARK.json names %d", w.Name, traced, len(line.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := line.Metrics[m.Name]
				if !ok {
					t.Errorf("%s --trace %s: metric %s not emitted", w.Name, traced, m.Name)
					continue
				}
				v, isNum := got["value"].(float64)
				if len(got) != 2 || !isNum || got["unit"] != m.Unit {
					t.Errorf("%s: %s emitted as %v, want value and unit %q", w.Name, m.Name, got, m.Unit)
				}
				if traced == "0" && !(v > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, m.Name, v)
				}
			}
			if traced == "1" {
				b, err := os.ReadFile(filepath.Join(dir, "trace_"+w.Name+".json"))
				if err != nil {
					t.Fatal(err)
				}
				var spans []span
				if err := json.Unmarshal(b, &spans); err != nil || len(spans) == 0 {
					t.Fatalf("%s: span file: %d spans, err %v", w.Name, len(spans), err)
				}
				for _, s := range spans {
					if s.Name == "" || s.EndNs < s.StartNs || s.Workload != w.Name || s.Parent >= s.ID {
						t.Fatalf("%s: malformed span %+v", w.Name, s)
					}
				}
			}
		}
	}
	runs, err := readRuns(filepath.Join(dir, "runs.json"))
	if err != nil || len(runs) != 2*len(spec.Workloads) {
		t.Fatalf("result file holds %d runs (err %v), want %d", len(runs), err, 2*len(spec.Workloads))
	}
	for _, r := range runs {
		if r.Host.NProc < 1 || r.Host.T < 1 || r.Host.GoVersion == "" || r.Config["server_memory_budget"] != serverMemoryBudget {
			t.Errorf("result file run lacks its host or config block: %+v %+v", r.Host, r.Config)
		}
		for name, w := range r.Workloads {
			if len(w.WorkingSetBytes) != 2 {
				t.Errorf("%s: working-set bytes of %d parts, want 2", name, len(w.WorkingSetBytes))
			}
		}
	}
}

// A part can be run on its own under the name the issue fixed for it.
func TestResolve(t *testing.T) {
	for name, want := range map[string]int{"all": 2, "stencil-mt.serve-kernel": 1, "scatter-mt": 1, "serve-wire": 1} {
		jobs, err := resolve(name)
		if err != nil || len(jobs) != want {
			t.Errorf("resolve(%q) = %d jobs, err %v; want %d", name, len(jobs), err, want)
		}
	}
	if _, err := resolve("nope"); err == nil {
		t.Error("resolve accepted an unknown workload")
	}
	if l2, llc := cacheSizes(t.TempDir()); l2 != 0 || llc != 0 {
		t.Errorf("cacheSizes of an empty directory = %d, %d", l2, llc)
	}
	if got := parseSize("2048K"); got != 2<<20 {
		t.Errorf("parseSize(2048K) = %d", got)
	}
}
