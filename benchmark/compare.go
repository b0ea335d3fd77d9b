package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"spmv/internal/core"
)

// benchSpec is the part of BENCHMARK.json the benchmark itself reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Verdicts of one (metric, workload) pair; b is judged against a.
const (
	verdictBetter     = "better"       // every run of b reads better than every run of a
	verdictWithin     = "within-bound" // b's median is no worse than a's by more than the bound
	verdictRegressed  = "regressed"    // it is worse by more than the bound
	verdictUnresolved = "unresolved"   // the run-to-run spread is wider than the bound
)

// spread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(v, n=4) gives (position (n+1)*p, which is what
// the driver computes); 0 for fewer than two runs.
func spread(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	quartile := func(p float64) float64 {
		pos := p*float64(n+1) - 1 // 0-based
		lo := int(math.Floor(pos))
		if lo < 0 {
			lo = 0
		}
		if lo > n-2 {
			lo = n - 2
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	med := quantile(s, 0.5)
	if core.IsZero(med) {
		return 0
	}
	return (quartile(0.75) - quartile(0.25)) / med
}

// judge applies one metric's bound to two sets of runs.
func judge(a, b []float64, m specMetric) (verdict string, worse float64) {
	lower := m.Better == "lower"
	medA, medB := summarize(a).Median, summarize(b).Median
	worse = (medB - medA) / medA // share of a's median by which b is worse
	if !lower {
		worse = -worse
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if lower && y >= x || !lower && y <= x {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter:
		return verdictBetter, worse
	case spread(a) > m.Bound || spread(b) > m.Bound:
		return verdictUnresolved, worse
	case worse > m.Bound:
		return verdictRegressed, worse
	}
	return verdictWithin, worse
}

// untracedValues collects one metric of one workload over the untraced
// runs of a result file.
func untracedValues(runs []runRecord, workload, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if r.Traced {
			continue
		}
		if v, ok := r.Workloads[workload].Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// compareFiles prints one row per (metric, workload) found in both
// files and returns a non-zero status when any regressed.
func compareFiles(specPath, pathA, pathB string, stdout, stderr io.Writer) int {
	spec, err := readSpec(specPath)
	if err == nil {
		var a, b []runRecord
		if a, err = readRuns(pathA); err == nil {
			b, err = readRuns(pathB)
		}
		if err == nil {
			return compareRuns(spec, a, b, stdout)
		}
	}
	fmt.Fprintln(stderr, "benchmark:", err)
	return 2
}

func compareRuns(spec benchSpec, a, b []runRecord, w io.Writer) int {
	status := 0
	fmt.Fprintf(w, "%-26s %-20s %12s %12s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "a median", "b median", "worse", "iqr a", "iqr b", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := untracedValues(a, wl.Name, m.Name), untracedValues(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict, worse := judge(va, vb, m)
			if verdict == verdictRegressed {
				status = 1
			}
			fmt.Fprintf(w, "%-26s %-20s %12.6g %12.6g %+7.1f%% %6.1f%% %6.1f%% %5.0f%%  %s (n=%d,%d)\n",
				wl.Name, m.Name, summarize(va).Median, summarize(vb).Median, 100*worse,
				100*spread(va), 100*spread(vb), 100*m.Bound, verdict, len(va), len(vb))
		}
	}
	return status
}
