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
	want := []string{"cmd/tool", "internal/conc", "internal/core", "internal/csrvi", "internal/sample"}
	var got []string
	for _, p := range m.Pkgs {
		got = append(got, p.RelPath)
	}
	sort.Strings(got)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("packages = %v, want %v", got, want)
	}
}

// TestLoaderRespectsBuildConstraints: the fixture's internal/conc
// carries conc_stub.go behind an always-false //go:build tag, with
// declarations that collide with conc.go. Loading succeeds only if
// the loader honors the constraint; the excluded file must not appear
// in the package file list.
func TestLoaderRespectsBuildConstraints(t *testing.T) {
	m := loadFixture(t) // Load fails with duplicate declarations if the constraint is ignored
	pkg := m.LookupSuffix("internal/conc")
	if pkg == nil {
		t.Fatal("fixture package internal/conc not loaded")
	}
	for _, name := range pkg.Filenames {
		if strings.HasSuffix(name, "conc_stub.go") {
			t.Fatalf("build-constrained file %s was loaded", name)
		}
	}
}

// TestRulesOnFixture runs the whole default suite over the fixture
// module and asserts the exact finding set: every planted violation
// fires, every planted non-violation stays silent.
func TestRulesOnFixture(t *testing.T) {
	m := loadFixture(t)
	issues := Run(m, DefaultRules(), &Allowlist{})
	var got []string
	for _, is := range issues {
		got = append(got, fmt.Sprintf("%s %s %s", is.Rule, is.File, is.Func))
	}
	sort.Strings(got)
	want := []string{
		"ctxflow internal/conc/conc.go CallsPkgLevel",
		"ctxflow internal/conc/conc.go MintsBackground",
		"ctxflow internal/conc/conc.go RunsWithoutCtx",
		"deferloop internal/conc/conc.go spmvDeferInLoop",
		"droppederr cmd/tool/main.go main",
		"droppederr internal/sample/sample.go DropsErrors",
		"droppederr internal/sample/sample.go DropsErrors",
		"droppederr internal/sample/sample.go DropsErrors",
		"droppederr internal/sample/sample.go DropsErrors",
		"droppederr internal/sample/sample.go DropsErrors",
		"floateq internal/sample/sample.go FloatCompares",
		"goroleak internal/conc/conc.go SpawnAndAbandon",
		"hotpath internal/sample/sample.go spmvBody",
		"hotpath internal/sample/sample.go spmvBody",
		"hotpath internal/sample/sample.go spmvGeneric",
		"lockbalance internal/conc/conc.go ByValue",
		"lockbalance internal/conc/conc.go CopiesLockParam",
		"lockbalance internal/conc/conc.go LeakOnError",
		"panics internal/sample/sample.go BadPanic",
		"verifier internal/sample/sample.go ",
		"wgbalance internal/conc/conc.go AddsInsideGoroutine",
		"wgbalance internal/conc/conc.go DoneSkippedOnError",
		"wgbalance internal/conc/conc.go WaitsForever",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestRuleMessages spot-checks that each rule's message names the
// offending construct.
func TestRuleMessages(t *testing.T) {
	m := loadFixture(t)
	issues := Run(m, DefaultRules(), &Allowlist{})
	wantSubstrings := map[string]string{
		"panics":      "typed error",
		"verifier":    "BadFormat",
		"droppederr":  "dropped",
		"floateq":     "epsilon",
		"hotpath":     "hot kernel",
		"lockbalance": "still held",
		"goroleak":    "unbuffered",
		"ctxflow":     "propagate cancellation",
		"wgbalance":   "Done",
		"deferloop":   "hoist",
	}
	seen := map[string]bool{}
	for _, is := range issues {
		if sub, ok := wantSubstrings[is.Rule]; ok && strings.Contains(is.Msg, sub) {
			seen[is.Rule] = true
		}
	}
	for rule := range wantSubstrings {
		if !seen[rule] {
			t.Errorf("no %s finding mentions %q", rule, wantSubstrings[rule])
		}
	}
}

func TestAllowlistSuppression(t *testing.T) {
	m := loadFixture(t)
	allow, err := ParseAllowlist(strings.NewReader(`
# suppress the planted bare panic only
panics internal/sample/*.go BadPanic
`))
	if err != nil {
		t.Fatal(err)
	}
	for _, is := range Run(m, DefaultRules(), allow) {
		if is.Rule == "panics" {
			t.Fatalf("allowlisted panic still reported: %+v", is)
		}
	}

	allowAll, err := ParseAllowlist(strings.NewReader("* internal/sample/*.go\n* cmd/tool/*.go\n* internal/conc/*.go"))
	if err != nil {
		t.Fatal(err)
	}
	if issues := Run(m, DefaultRules(), allowAll); len(issues) != 0 {
		t.Fatalf("wildcard allowlist left %d findings: %+v", len(issues), issues[0])
	}
}

// TestAllowlistStaleAndPrune exercises the staleness accounting: an
// entry that suppresses a planted finding is live, entries aiming at
// nothing are stale, and PruneAllowlist rewrites the file keeping
// comments and live entries.
func TestAllowlistStaleAndPrune(t *testing.T) {
	m := loadFixture(t)
	content := `# header comment
panics internal/sample/*.go BadPanic
droppederr internal/nonexistent/*.go

# trailing comment
floateq internal/sample/*.go NoSuchFunc
`
	path := filepath.Join(t.TempDir(), "allow")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	allow, err := LoadAllowlist(path)
	if err != nil {
		t.Fatal(err)
	}
	Run(m, DefaultRules(), allow)
	stale := allow.Stale()
	if len(stale) != 2 {
		t.Fatalf("stale entries = %+v, want 2 (the nonexistent path and the nonexistent func)", stale)
	}
	if stale[0].Line != 3 || stale[1].Line != 6 {
		t.Fatalf("stale lines = %d, %d, want 3 and 6", stale[0].Line, stale[1].Line)
	}

	if err := PruneAllowlist(path, stale); err != nil {
		t.Fatal(err)
	}
	pruned, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(pruned)
	for _, wantKept := range []string{"# header comment", "# trailing comment", "panics internal/sample/*.go BadPanic"} {
		if !strings.Contains(text, wantKept) {
			t.Errorf("prune dropped %q:\n%s", wantKept, text)
		}
	}
	for _, wantGone := range []string{"nonexistent", "NoSuchFunc"} {
		if strings.Contains(text, wantGone) {
			t.Errorf("prune kept stale entry mentioning %q:\n%s", wantGone, text)
		}
	}

	// After the prune, a fresh run leaves nothing stale.
	allow2, err := LoadAllowlist(path)
	if err != nil {
		t.Fatal(err)
	}
	Run(m, DefaultRules(), allow2)
	if s := allow2.Stale(); len(s) != 0 {
		t.Fatalf("post-prune stale entries = %+v, want none", s)
	}
}

func TestParseAllowlistErrors(t *testing.T) {
	for _, bad := range []string{
		"panics",                       // too few fields
		"panics a b c",                 // too many fields
		"panics internal/[ *",          // bad path glob
		"panics internal/sample.go [x", // bad func glob
	} {
		if _, err := ParseAllowlist(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseAllowlist(%q) accepted invalid input", bad)
		}
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
