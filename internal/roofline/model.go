package roofline

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"spmv/internal/memsim"
	"spmv/internal/prof/archive"
)

// Sources a Model can be built from.
const (
	SourceProbe    = "probe"
	SourceAnalytic = "analytic"
)

// Model is the bandwidth roofline: per-thread-count ceilings in GB/s.
// Built from a measured probe archive (FromFile/Load) or from a
// memsim.Machine's analytic peak (Analytic). A Model is immutable
// after construction and safe for concurrent readers.
type Model struct {
	// Source is "probe" or "analytic"; Host names the probed machine
	// ("" for analytic models).
	Source string `json:"source"`
	Host   string `json:"host,omitempty"`
	// Ceilings maps thread count to the best sustained GB/s any probe
	// kernel measured at that count. Analytic models hold a single
	// entry at thread count 0, meaning "any".
	Ceilings map[int]float64 `json:"ceilings_gbps"`
}

// FromFile builds a Model from a probe archive: per thread count, the
// ceiling is the best mean GB/s across the three kernels — the most
// bandwidth any streaming access pattern actually sustained.
func FromFile(f *File) (*Model, error) {
	if f == nil || len(f.Results) == 0 {
		return nil, fmt.Errorf("roofline: empty probe file")
	}
	if f.Schema != Schema {
		return nil, fmt.Errorf("roofline: unsupported schema %d (want %d)", f.Schema, Schema)
	}
	m := &Model{Source: SourceProbe, Host: f.Host, Ceilings: map[int]float64{}}
	for _, r := range f.Results {
		if r.Threads < 1 || r.MeanGBps <= 0 {
			continue
		}
		if r.MeanGBps > m.Ceilings[r.Threads] {
			m.Ceilings[r.Threads] = r.MeanGBps
		}
	}
	if len(m.Ceilings) == 0 {
		return nil, fmt.Errorf("roofline: probe file has no positive-bandwidth cells")
	}
	return m, nil
}

// Analytic builds a Model from a machine description's bus-occupancy
// peak: one flat ceiling, independent of thread count — the roof the
// memory simulation converges to under pure streaming.
func Analytic(mach memsim.Machine) *Model {
	return &Model{
		Source:   SourceAnalytic,
		Ceilings: map[int]float64{0: mach.PeakGBps()},
	}
}

// CeilingGBps returns the roofline for a run at the given thread
// count: the measured ceiling at the largest probed thread count not
// exceeding threads (bandwidth is monotone-ish in threads until the
// bus saturates, so the nearest-below cell is the conservative
// denominator), the smallest probed count when threads sits below all
// of them, or the flat analytic ceiling. 0 only for an empty model.
func (m *Model) CeilingGBps(threads int) float64 {
	if m == nil || len(m.Ceilings) == 0 {
		return 0
	}
	if c, ok := m.Ceilings[0]; ok {
		return c
	}
	counts := make([]int, 0, len(m.Ceilings))
	for t := range m.Ceilings {
		counts = append(counts, t)
	}
	sort.Ints(counts)
	best := counts[0]
	for _, t := range counts {
		if t > threads {
			break
		}
		best = t
	}
	return m.Ceilings[best]
}

// Pct returns the fraction of the roofline a measured bandwidth
// reached at the given thread count: gbps / CeilingGBps(threads).
// 0 when the model has no ceiling. Multiply by 100 for a percentage.
func (m *Model) Pct(gbps float64, threads int) float64 {
	c := m.CeilingGBps(threads)
	if c <= 0 {
		return 0
	}
	return gbps / c
}

// MaxThreads returns the largest probed thread count (0 for analytic
// models, whose ceiling is thread-independent).
func (m *Model) MaxThreads() int {
	best := 0
	if m == nil {
		return 0
	}
	for t := range m.Ceilings {
		if t > best {
			best = t
		}
	}
	return best
}

// ---- persistence ----

// DefaultPath returns the conventional probe-archive path for a host
// inside dir: ROOF_<host>.json (unsafe characters become '-', an
// empty host becomes "unknown" — the same convention as the benchmark
// archive's BENCH_<host>.json).
func DefaultPath(dir, host string) string {
	host = strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		}
		return '-'
	}, host)
	if host == "" {
		host = "unknown"
	}
	return filepath.Join(dir, "ROOF_"+host+".json")
}

// Hostname returns the host name for archive paths, "unknown" when
// the system call fails — archive paths must always be buildable.
func Hostname() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		return "unknown"
	}
	return host
}

// WriteFile persists a probe archive as indented JSON.
func WriteFile(path string, f *File) error {
	f.Schema = Schema
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("roofline: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("roofline: %w", err)
	}
	return nil
}

// ReadFile loads and validates a probe archive.
func ReadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("roofline: %w", err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("roofline: %s: %w", path, err)
	}
	if f.Schema != Schema {
		return nil, fmt.Errorf("roofline: %s: unsupported schema %d (want %d)", path, f.Schema, Schema)
	}
	return &f, nil
}

// Load builds a Model from dir's probe archive for this host. With no
// archive the error names the path it tried; Analytic is not this
// host's ceiling, so only a caller that labels it may fall back to it.
func Load(dir string) (*Model, error) {
	f, err := ReadFile(DefaultPath(dir, Hostname()))
	if err != nil {
		return nil, err
	}
	return FromFile(f)
}

// ---- drift detection ----

// records converts a probe file into benchmark-archive records, one
// per (kernel, threads) cell with GB/s restated as seconds per sweep,
// so the archive's Welch comparator can test probe-to-probe drift with
// the same machinery the benchmark regression gate uses.
func records(f *File) []archive.Record {
	out := make([]archive.Record, 0, len(f.Results))
	for _, r := range f.Results {
		if r.MeanGBps <= 0 {
			continue
		}
		bytesPerSweep := float64(int64(r.ArrayLen) * kernelBytesPerElem(r.Kernel))
		mean := bytesPerSweep / (r.MeanGBps * 1e9)
		// First-order error propagation: relative spread carries over
		// from GB/s to seconds under inversion.
		stddev := 0.0
		if r.Samples >= 2 {
			stddev = mean * r.StddevGBps / r.MeanGBps
		}
		out = append(out, archive.Record{
			Name:     "roof/" + r.Kernel + "/t" + fmt.Sprint(r.Threads),
			Matrix:   "roof",
			Format:   r.Kernel,
			Threads:  r.Threads,
			Scale:    1,
			Iters:    r.SweepsPerSample,
			Samples:  r.Samples,
			MeanSecs: mean, StddevSecs: stddev,
			BytesPerIter: int64(bytesPerSweep),
			GBps:         r.MeanGBps,
		})
	}
	return out
}

// Drift Welch-compares two probe archives cell by cell and returns the
// cells whose bandwidth changed significantly by more than the given
// fraction (0 means the comparator's 10% default) — the "did this
// host's memory system change under us" check for committed ROOF
// archives.
func Drift(old, cur *File, slowdown float64) ([]archive.Result, error) {
	results, err := archive.Compare(records(old), records(cur), archive.Options{Slowdown: slowdown})
	if err != nil {
		return nil, err
	}
	return archive.Regressions(results), nil
}
