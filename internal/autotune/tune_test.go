package autotune

import (
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spmv/internal/core"
	"spmv/internal/formats"
	"spmv/internal/matgen"
)

// fakeClock is a clock that only the fake formats' multiplies move.
type fakeClock struct{ ns atomic.Int64 }

func (c *fakeClock) now() time.Time { return time.Unix(0, c.ns.Load()) }

// fake is a format whose multiply costs a fixed time on the fake clock
// and computes nothing. It is one chunk, so one multiply on the
// executor adds its cost once at any thread count; a serial multiply
// adds serial.
type fake struct {
	core.Format         // the real csr matrix, for the shape
	name                string
	bytes, cost, serial int64
	width               int
	clk                 *fakeClock
}

func (f *fake) SpMV(_, _ []float64)    { f.clk.ns.Add(f.serial) }
func (f *fake) Name() string           { return f.name }
func (f *fake) SizeBytes() int64       { return f.bytes }
func (f *fake) IndexWidth() int        { return f.width }
func (f *fake) Split(int) []core.Chunk { return []core.Chunk{fakeChunk{f}} }

type fakeChunk struct{ f *fake }

func (c fakeChunk) RowRange() (int, int) { return 0, c.f.Rows() }
func (c fakeChunk) NNZ() int             { return c.f.NNZ() }
func (c fakeChunk) SpMV(_, _ []float64)  { c.f.clk.ns.Add(c.f.cost) }

// fakeSpec is what the fake builder makes of one format name: a
// multiply cost in ns, a size, a val_ind width, or a build error.
// serial is a serial multiply's cost; 0 means 1024 times cost, a
// matrix far above the small-matrix floor at any thread count. real
// runs the real build first and fails where it fails.
type fakeSpec struct {
	cost, bytes, serial int64
	width               int
	err                 error
	real                bool
}

// fakes swaps in the fake clock and a builder serving specs, and
// returns the names built, in order, and the count of fakes alive
// (built and not yet collected).
func fakes(t *testing.T, specs map[string]fakeSpec) (built *[]string, live *atomic.Int64) {
	t.Helper()
	clk := &fakeClock{}
	built, live = new([]string), new(atomic.Int64)
	oldNow, oldBuild := now, build
	t.Cleanup(func() { now, build = oldNow, oldBuild })
	now = clk.now
	build = func(c *core.COO, s formats.Spec) (core.Format, error) {
		*built = append(*built, s.Name())
		fs, ok := specs[s.Name()]
		if !ok {
			t.Fatalf("unexpected build of %s", s.Name())
		}
		if fs.err != nil {
			return nil, fs.err
		}
		if fs.real {
			if _, err := formats.BuildSpec(c, s); err != nil {
				return nil, err
			}
		}
		shape, err := formats.Build("csr", c)
		if err != nil {
			return nil, err
		}
		if fs.serial == 0 {
			fs.serial = 1024 * fs.cost
		}
		f := &fake{Format: shape, name: s.Name(), bytes: fs.bytes, cost: fs.cost, serial: fs.serial, width: fs.width, clk: clk}
		live.Add(1)
		runtime.SetFinalizer(f, func(*fake) { live.Add(-1) })
		return f, nil
	}
	return built, live
}

func stencil() *core.COO { return matgen.Stencil2D(12) }

func candidate(t *testing.T, rep *Report, name string) Candidate {
	t.Helper()
	for _, c := range rep.Candidates {
		if c.Spec.Name() == name {
			return c
		}
	}
	t.Fatalf("no candidate %s in %+v", name, rep.Candidates)
	return Candidate{}
}

func TestTuneChoosesLowestRatio(t *testing.T) {
	c := stencil()
	fakes(t, map[string]fakeSpec{
		"csr":       {cost: 100, bytes: 1000},
		"csr-vi":    {cost: 90, bytes: 800, width: 1},
		"csr-du":    {cost: 60, bytes: 700},
		"csr-du-vi": {cost: 70, bytes: 400},
		"sym-csr":   {cost: 80, bytes: 500},
	})
	f, rep, err := Tune(c, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "csr-du" || rep.Chosen.Name() != "csr-du" || rep.Chosen.Partition != "" {
		t.Fatalf("built %s, chose %+v; want csr-du", f.Name(), rep.Chosen)
	}
	want := map[string]float64{"csr": 1, "csr-vi": 0.9, "csr-du": 0.6, "csr-du-vi": 0.7, "sym-csr": 0.8}
	var names []string
	for _, cand := range rep.Candidates {
		names = append(names, cand.Spec.Name())
		if cand.Ratio != want[cand.Spec.Name()] || cand.Reason != "" {
			t.Errorf("%s: ratio %v reason %q, want %v", cand.Spec.Name(), cand.Ratio, cand.Reason, want[cand.Spec.Name()])
		}
	}
	if got := strings.Join(names, " "); got != "csr csr-vi csr-du csr-du-vi sym-csr" {
		t.Errorf("candidate order %q", got)
	}
	du := candidate(t, rep, "csr-du")
	if du.Samples != rounds || du.Bytes != 700 || du.NsPerNNZ != 60/float64(c.Len()) {
		t.Errorf("csr-du entry %+v", du)
	}
	if ch := rep.Choice(); ch.Spec.Name() != "csr-du" || ch.Bytes != 700 {
		t.Errorf("Choice() = %+v", ch)
	}
}

func TestTuneTieGoesToFewerBytes(t *testing.T) {
	for _, tc := range []struct {
		duBytes int64
		want    string
	}{{900, "csr-du"}, {1100, "csr-vi"}} {
		// csr-du is 2.5% faster than csr-vi: a tie, which bytes decide.
		fakes(t, map[string]fakeSpec{
			"csr":     {cost: 100, bytes: 2000},
			"csr-vi":  {cost: 80, bytes: 1000},
			"csr-du":  {cost: 78, bytes: tc.duBytes},
			"sym-csr": {err: errors.New("not symmetric")},
		})
		f, rep, err := Tune(stencil(), Options{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		if f.Name() != tc.want || rep.Chosen.Name() != tc.want {
			t.Errorf("csr-du at %d bytes: chose %s, want %s", tc.duBytes, rep.Chosen.Name(), tc.want)
		}
	}
}

func TestTuneReportsFailedBuild(t *testing.T) {
	built, _ := fakes(t, map[string]fakeSpec{
		"csr":     {cost: 100, bytes: 1000},
		"csr-vi":  {cost: 95, bytes: 900},
		"csr-du":  {err: errors.New("encoder refused")},
		"sym-csr": {cost: 10, bytes: 100, real: true},
	})
	c := matgen.Banded(rand.New(rand.NewSource(1)), 50, 3, 4, matgen.Values{}) // not symmetric
	_, rep, err := Tune(c, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Chosen.Name() != "csr-vi" {
		t.Errorf("chose %s, want csr-vi", rep.Chosen.Name())
	}
	if du := candidate(t, rep, "csr-du"); du.Reason != "encoder refused" || du.Samples != 0 {
		t.Errorf("failed csr-du entry %+v", du)
	}
	if sym := candidate(t, rep, "sym-csr"); !strings.Contains(sym.Reason, "symmetric") || sym.Samples != 0 {
		t.Errorf("sym-csr on an asymmetric matrix: %+v", sym)
	}
	if got := strings.Join(*built, " "); got != "csr csr-vi csr-du sym-csr" {
		t.Errorf("built %q", got)
	}
}

// TestSymmetricMatrixPicksSymCSR: sym-csr is built where sym.FromCOO
// takes the matrix and wins where it times fastest.
func TestSymmetricMatrixPicksSymCSR(t *testing.T) {
	fakes(t, map[string]fakeSpec{
		"csr":     {cost: 100, bytes: 1000},
		"csr-vi":  {cost: 95, bytes: 900},
		"csr-du":  {cost: 90, bytes: 800},
		"sym-csr": {cost: 50, bytes: 600, real: true},
	})
	f, rep, err := Tune(stencil(), Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "sym-csr" || candidate(t, rep, "sym-csr").Ratio != 0.5 {
		t.Errorf("chose %s: %+v", f.Name(), rep.Candidates)
	}
}

func TestTuneSkipsCSRDUVIWhenPlain(t *testing.T) {
	for _, width := range []int{0, 2} {
		specs := map[string]fakeSpec{
			"csr":     {cost: 100, bytes: 1000},
			"csr-vi":  {cost: 100, bytes: 1000, width: width},
			"csr-du":  {cost: 100, bytes: 1000},
			"sym-csr": {cost: 100, bytes: 1000},
		}
		if width > 0 {
			specs["csr-du-vi"] = fakeSpec{cost: 100, bytes: 1000}
		}
		built, _ := fakes(t, specs)
		_, rep, err := Tune(stencil(), Options{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		vi := candidate(t, rep, "csr-du-vi")
		if width == 0 && (vi.Samples != 0 || !strings.HasPrefix(vi.Reason, "skipped")) {
			t.Errorf("plain csr-vi: csr-du-vi entry %+v, built %v", vi, *built)
		}
		if width > 0 && (vi.Samples != rounds || vi.Reason != "") {
			t.Errorf("dictionary csr-vi: csr-du-vi entry %+v", vi)
		}
	}
}

// TestCandidatesAlwaysRankCSR: CSR is the first entry at ratio 1 with
// every baseline sample (the floor's and each timed candidate's
// rounds), and wins when nothing beats it by 5%.
func TestCandidatesAlwaysRankCSR(t *testing.T) {
	fakes(t, map[string]fakeSpec{
		"csr":     {cost: 100, bytes: 1000},
		"csr-vi":  {cost: 120, bytes: 900},
		"csr-du":  {cost: 97, bytes: 1200},
		"sym-csr": {err: errors.New("not symmetric")},
	})
	c := stencil()
	f, rep, err := Tune(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := rep.Candidates[0]
	if f.Name() != "csr" || rep.Chosen.Name() != "csr" {
		t.Errorf("chose %s, want csr", rep.Chosen.Name())
	}
	if base.Spec.Name() != "csr" || base.Ratio != 1 || base.Samples != 3*rounds || base.NsPerNNZ != 100/float64(c.Len()) {
		t.Errorf("csr entry %+v", base)
	}
}

// TestSmallMatrixKeepsFewestBytes: where CSR on the executor takes
// more than twice its serial time over the thread count, the dispatch
// dominates every timing and the fewest bytes win, whatever the
// ratios; a matrix above that floor is ranked by ratio.
func TestSmallMatrixKeepsFewestBytes(t *testing.T) {
	for _, tc := range []struct {
		serial int64
		want   string
	}{{60, "csr-du"}, {99, "csr-du"}, {100, "csr-vi"}, {200, "csr-vi"}} {
		fakes(t, map[string]fakeSpec{
			"csr":     {cost: 100, serial: tc.serial, bytes: 1000},
			"csr-vi":  {cost: 50, bytes: 900},
			"csr-du":  {cost: 90, bytes: 500},
			"sym-csr": {err: errors.New("not symmetric")},
		})
		f, rep, err := Tune(stencil(), Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		if f.Name() != tc.want || rep.Chosen.Name() != tc.want {
			t.Errorf("serial csr %d ns against 100 on 2 threads: chose %s, want %s", tc.serial, rep.Chosen.Name(), tc.want)
		}
	}
}

// TestSmallMatrixChoiceRepeats tunes TestWithAutoFormatPublic's
// dense-blocks shape (1536 non-zeros, below the floor on 2 threads)
// 20 times: every run must choose the same format, the timed
// candidate with the fewest bytes.
func TestSmallMatrixChoiceRepeats(t *testing.T) {
	c := matgen.BlockDiag(rand.New(rand.NewSource(21)), 96, 4, matgen.Values{})
	var first string
	for i := range 20 {
		_, rep, err := Tune(c, Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		fewest := rep.Candidates[0]
		for _, cand := range rep.Candidates {
			if cand.Reason == "" && cand.Bytes < fewest.Bytes {
				fewest = cand
			}
		}
		if rep.Chosen.Name() != fewest.Spec.Name() {
			t.Fatalf("run %d chose %s, not %s with the fewest bytes: %+v", i, rep.Chosen.Name(), fewest.Spec.Name(), rep.Candidates)
		}
		if i == 0 {
			first = rep.Chosen.Name()
		} else if rep.Chosen.Name() != first {
			t.Fatalf("run %d chose %s, run 0 chose %s", i, rep.Chosen.Name(), first)
		}
	}
}

// TestTuneKeepsAtMostThreeAlive checks, at every build, that no more
// than two earlier matrices are still reachable: CSR and the best so
// far. Each new candidate beats the last in one run (the old best is
// released) and loses to it in the other (the candidate is).
func TestTuneKeepsAtMostThreeAlive(t *testing.T) {
	for _, costs := range [][4]int64{{90, 80, 70, 60}, {60, 70, 80, 90}} {
		specs := map[string]fakeSpec{
			"csr":       {cost: 100, bytes: 1000},
			"csr-vi":    {cost: costs[0], bytes: 1000, width: 1},
			"csr-du":    {cost: costs[1], bytes: 1000},
			"csr-du-vi": {cost: costs[2], bytes: 1000},
			"sym-csr":   {cost: costs[3], bytes: 1000},
		}
		built, live := fakes(t, specs)
		inner := build
		build = func(c *core.COO, s formats.Spec) (core.Format, error) {
			if n := collect(live, 2); n > 2 {
				t.Errorf("costs %v: building %s with %d matrices alive", costs, s.Name(), n)
			}
			return inner(c, s)
		}
		if _, _, err := Tune(stencil(), Options{Threads: 2}); err != nil {
			t.Fatal(err)
		}
		if len(*built) != 5 {
			t.Errorf("built %v", *built)
		}
	}
}

// collect runs the collector until at most want fakes are alive or a
// second has passed, and returns the count alive. Released executors'
// workers exit asynchronously, so a released matrix can stay reachable
// for a moment after Close.
func collect(live *atomic.Int64, want int64) int64 {
	deadline := time.Now().Add(time.Second)
	for live.Load() > want && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	return live.Load()
}

func TestProberIters(t *testing.T) {
	for _, tc := range [][2]int{{0, 1}, {1, 50}, {80_000, 50}, {400_000, 10}, {1 << 30, 1}} {
		if got := proberIters(tc[0]); got != tc[1] {
			t.Errorf("proberIters(%d) = %d, want %d", tc[0], got, tc[1])
		}
	}
}
