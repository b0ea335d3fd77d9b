package srccheck

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func loadFixture(t *testing.T) *Module {
	t.Helper()
	m, err := Load(filepath.Join("testdata", "module"))
	if err != nil {
		t.Fatalf("Load fixture: %v", err)
	}
	return m
}

func TestLoadFixtureModule(t *testing.T) {
	m := loadFixture(t)
	if m.Path != "fixture" {
		t.Fatalf("module path = %q, want fixture", m.Path)
	}
	want := []string{"cmd/tool", "internal/core", "internal/csrvi", "internal/sample"}
	var got []string
	for _, p := range m.Pkgs {
		got = append(got, p.RelPath)
	}
	sort.Strings(got)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("packages = %v, want %v", got, want)
	}
}

// TestLoaderRespectsBuildConstraints: the fixture's internal/sample
// carries sample_stub.go behind an always-false //go:build tag, with
// a declaration that collides with sample.go. Loading succeeds only if
// the loader honors the constraint; the excluded file must not appear
// in the package file list.
func TestLoaderRespectsBuildConstraints(t *testing.T) {
	m := loadFixture(t) // Load fails with duplicate declarations if the constraint is ignored
	for _, pkg := range m.Pkgs {
		for _, name := range pkg.Filenames {
			if strings.HasSuffix(name, "sample_stub.go") {
				t.Fatalf("build-constrained file %s was loaded", name)
			}
		}
	}
}

// TestRulesOnFixture runs the whole default suite over the fixture
// module and asserts the exact finding set: every planted violation
// (marked "want:" in the fixture) fires, every planted non-violation
// stays silent.
func TestRulesOnFixture(t *testing.T) {
	m := loadFixture(t)
	var got []string
	for _, is := range Run(m, DefaultRules()) {
		got = append(got, fmt.Sprintf("%s %s:%d", is.Rule, is.File, is.Line))
	}
	want := []string{
		"droppederr cmd/tool/main.go:10",
		"panics internal/sample/sample.go:18",
		"droppederr internal/sample/sample.go:32",
		"droppederr internal/sample/sample.go:33",
		"droppederr internal/sample/sample.go:34",
		"droppederr internal/sample/sample.go:35",
		"droppederr internal/sample/sample.go:36",
		"floateq internal/sample/sample.go:56",
		"hotpath internal/sample/sample.go:68",
		"hotpath internal/sample/sample.go:69",
		"hotpath internal/sample/sample.go:74",
		"hotpath internal/sample/sample.go:89",
		"goroleak internal/sample/sample.go:105",
		"wgbalance internal/sample/sample.go:135",
		"lockbalance internal/sample/sample.go:168",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestRuleMessages spot-checks that each rule's message names the
// offending construct.
func TestRuleMessages(t *testing.T) {
	m := loadFixture(t)
	issues := Run(m, DefaultRules())
	wantSubstrings := map[string][]string{
		"panics":      {"typed error"},
		"droppederr":  {"dropped"},
		"floateq":     {"epsilon"},
		"hotpath":     {"fmt.Println in hot kernel", "boxes", "defer inside a loop"},
		"goroleak":    {"unbuffered channel ch"},
		"wgbalance":   {"wg.Add inside the spawned goroutine"},
		"lockbalance": {"g.mu.Lock() is never released"},
	}
	for rule, subs := range wantSubstrings {
		for _, sub := range subs {
			found := false
			for _, is := range issues {
				found = found || (is.Rule == rule && strings.Contains(is.Msg, sub))
			}
			if !found {
				t.Errorf("no %s finding mentions %q", rule, sub)
			}
		}
	}
}

// TestLiveMutations copies the module's own source to a temporary
// directory, plants one realistic mistake per rule in live code, and
// asserts that every rule reports its mistake and nothing else fires.
// Each mistake is one that go vet, go test -race ./... and the compile
// and alloc gates all let through (why names the reason), so the row
// fails without its rule: that is what keeps the rule in the suite.
func TestLiveMutations(t *testing.T) {
	rows := []struct {
		rule, file, old, new, why string
	}{
		{
			rule: "panics", file: "internal/partition/partition.go",
			old: `panic(core.Usagef("partition: SplitPrefix needs prefix with prefix[0]==0"))`,
			new: `panic("partition: SplitPrefix needs prefix with prefix[0]==0")`,
			why: "no test feeds SplitPrefix a bad prefix",
		},
		{
			rule: "droppederr", file: "cmd/mtxinfo/main.go",
			old: "if cerr := f.Close(); cerr != nil && err == nil {\n\t\t\terr = cerr\n\t\t}",
			new: "_ = f.Close()",
			why: "closing a file opened for reading does not fail in a test",
		},
		{
			rule: "floateq", file: "internal/precond/ilu0.go",
			old: "if core.IsZero(p.vals[p.diagPos[i]]) {",
			new: "if p.vals[p.diagPos[i]] == 0 {",
			why: "== 0 and core.IsZero agree on every float64",
		},
		{
			rule: "hotpath", file: "internal/sym/sym.go",
			old: "func (m *Matrix) SpMV(y, x []float64) {\n",
			new: "func (m *Matrix) SpMV(y, x []float64) {\n\tif len(y) < m.n {\n\t\tfmt.Printf(\"sym: SpMV into %d of %d rows\\n\", len(y), m.n)\n\t}\n",
			why: "internal/sym is outside the compile gate's packages, and the print never runs",
		},
		{
			rule: "hotpath", file: "internal/core/dense.go",
			old: "\t\tsum := 0.0\n\t\trow := d.V",
			new: "\t\tsum := 0.0\n\t\tdefer func() { y[i] = sum }()\n\t\trow := d.V",
			why: "internal/core is outside the compile gate's packages, and y is the same when the defers run",
		},
		{
			rule: "goroleak", file: "cmd/spmvd/selfcheck.go",
			old: "served := make(chan error, 1)",
			new: "served := make(chan error)",
			why: "only a failing selfcheck abandons the channel, and the process exits then",
		},
		{
			rule: "wgbalance", file: "cmd/spmvd/selfcheck.go",
			old: "\t\twg.Add(1)\n\t\tgo func() {\n\t\t\tdefer wg.Done()",
			new: "\t\tgo func() {\n\t\t\twg.Add(1)\n\t\t\tdefer wg.Done()",
			why: "the goroutines have all started long before Wait, so the race detector sees no overlap, even under go run -race",
		},
		{
			rule: "lockbalance", file: "benchmark/trace.go",
			old: "func (t *tracer) write(path string) error {\n\tt.mu.Lock()\n\tdefer t.mu.Unlock()\n",
			new: "func (t *tracer) write(path string) error {\n\tt.mu.Lock()\n",
			why: "the trace is written once, after its last span, so nothing waits on the lock again",
		},
	}

	root := filepath.Join("..", "..")
	dst := t.TempDir()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && skipDir(d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Name() != "go.mod" && (!strings.HasSuffix(d.Name(), ".go") || strings.HasSuffix(d.Name(), "_test.go")) {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Join(dst, filepath.Dir(rel)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		path := filepath.Join(dst, filepath.FromSlash(row.file))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(data), row.old); n != 1 {
			t.Fatalf("%s: the %s mutation's text occurs %d times, want 1", row.file, row.rule, n)
		}
		if err := os.WriteFile(path, []byte(strings.Replace(string(data), row.old, row.new, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	m, err := Load(dst)
	if err != nil {
		t.Fatal(err)
	}
	issues := Run(m, DefaultRules())
	for _, row := range rows {
		n := 0
		for _, is := range issues {
			if is.File == row.file && is.Rule == row.rule {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%s: %d %s findings, want one (%s)", row.file, n, row.rule, row.why)
		}
	}
	if len(issues) != len(rows) {
		t.Errorf("%d findings, want one a row:\n%v", len(issues), issues)
	}
}

// TestIsRequestPathFunc: the server's handlers, its wire codec and the
// dispatch machinery are request-path; the codec is deliberately not
// hot, so the kernel purity rules do not apply to it.
func TestIsRequestPathFunc(t *testing.T) {
	path := []string{"(*Server).handleMultiply", "(*Server).writeVector",
		"readBody", "parseX", "skipWS", "appendY", "parseNumber", "scanDigits", "divPow10",
		"appendFloat", "appendShortest", "put8", "rop",
		"flog10pow2", "flog10ThreeQuartersPow2", "flog2pow10",
		"(*coalescer).enqueue", "(*Executor).RunCtx", "SpMV",
		"(*pool).ready", "(*pool).multiply", "(*pool).once",
		"(*pool).dispatch", "(*pool).worker", "zeroRows"}
	cold := []string{"failMultiply", "ingest", "New", "(bodyError).Error", "badUpload"}
	for _, name := range path {
		if !IsRequestPathFunc(name) {
			t.Errorf("IsRequestPathFunc(%q) = false, want true", name)
		}
	}
	for _, name := range cold {
		if IsRequestPathFunc(name) {
			t.Errorf("IsRequestPathFunc(%q) = true, want false", name)
		}
	}
	for _, name := range []string{"readBody", "parseX", "appendY", "parseNumber", "scanDigits",
		"divPow10", "appendFloat", "appendShortest", "put8", "rop"} {
		if IsHotFunc(name) {
			t.Errorf("IsHotFunc(%q) = true, want false: the codec is request-path, not kernel", name)
		}
	}
}

func TestIsHotFunc(t *testing.T) {
	hot := []string{"SpMV", "SpMVAdd", "SpMVBatch", "Mul", "Dot", "spmvRange",
		"spmvBatch4", "spmvBatch8", "spmvBatchK", "spmvDUVI", "spmvBatchDUVI",
		"decodeUnit", "DecodeUnit", "csrdu.DecodeUnit", "SkipRows", "addRange",
		"(*Matrix).SpMV", "(*chunk).SpMVBatch",
		"runChunk",
		"SpMVPartial", "dotRange", "runNNZChunk", "runSymJob",
		"vec.DotBlocks", "AxpyDotBlocks", "axpyDot", "AxpyXpby", "Hadamard",
		"(*Executor).runChunk", "(*SymExecutor).runSymJob",
		"(*nnzChunk).SpMVPartial", "zeroRows"}
	cold := []string{"FromCOO", "Verify", "Name", "String", "Split", "Print",
		"worker", "symJobError", "traceTask", "Each", "runFunc", "SumBlocks"}
	for _, name := range hot {
		if !IsHotFunc(name) {
			t.Errorf("IsHotFunc(%q) = false, want true", name)
		}
	}
	for _, name := range cold {
		if IsHotFunc(name) {
			t.Errorf("IsHotFunc(%q) = true, want false", name)
		}
	}
}
