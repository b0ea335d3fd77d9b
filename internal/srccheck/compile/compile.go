// Package compile is spmvlint's second layer: a regression gate over
// the Go compiler's own bounds-check-elimination and escape-analysis
// diagnostics. It builds the kernel packages with
//
//	go build -gcflags='-m=1 -d=ssa/check_bce'
//
// parses the emitted diagnostics, attributes each to its enclosing
// function, and diffs the result against a checked-in per-package
// baseline. A new "Found IsInBounds" or "escapes to heap" inside a
// hot-kernel function (srccheck.IsHotFunc) fails the gate — those are
// exactly the hidden instructions and allocations the paper's
// bandwidth argument says the decode loops cannot afford — while stale
// baseline entries are reported so BCE wins get locked in rather than
// silently regressing later.
package compile

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// KernelPackages is the default gate scope: every package that
// contains an SpMV kernel or sits on the multithreaded hot path,
// as module-relative directories.
func KernelPackages() []string {
	return []string{
		"internal/csr",
		"internal/csrdu",
		"internal/csrvi",
		"internal/dcsr",
		"internal/parallel",
		"internal/vec",
	}
}

// AllocPackages is the allocation-gate scope: the serving stack whose
// per-request functions must hold their heap-allocation counts. The
// coalescer lives in internal/server; the executor fan-out in
// internal/parallel (which is also kernel-gated — one build feeds
// both gates).
func AllocPackages() []string {
	return []string{
		"internal/server",
		"internal/parallel",
	}
}

// AllocBaselineKey names the pseudo-package under which a package's
// allocation baseline is stored, keeping the files distinct from the
// BCE/escape baselines for the same package.
func AllocBaselineKey(pkg string) string { return "alloc/" + pkg }

// IsAllocCategory reports whether a gated category represents a heap
// allocation (as opposed to a bounds check).
func IsAllocCategory(cat string) bool {
	return cat == "escapes to heap" || cat == "moved to heap"
}

// FilterAlloc keeps the heap-allocation diagnostics attributed to
// request-path functions — the alloc gate's input. Diagnostics at
// package scope (Func == "") are kept too: a global that escapes is
// charged once, but a new one still deserves a look.
func FilterAlloc(diags []Diag, isRequestPath func(string) bool) []Diag {
	var out []Diag
	for _, d := range diags {
		if !IsAllocCategory(d.Category) {
			continue
		}
		if d.Func != "" && isRequestPath != nil && !isRequestPath(d.Func) {
			continue
		}
		out = append(out, d)
	}
	return out
}

// Diag is one compiler diagnostic of a gated category.
type Diag struct {
	File     string `json:"file"` // module-relative path
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Func     string `json:"func"`     // enclosing function, e.g. "(*Matrix).SpMV"
	Category string `json:"category"` // IsInBounds, IsSliceInBounds, escapes to heap, moved to heap
}

// Key is the baseline identity of a diagnostic: function and category,
// not line numbers, so unrelated edits do not churn the baseline.
func (d Diag) Key() string {
	return d.File + "|" + d.Func + "|" + d.Category
}

// Config drives one gate run.
type Config struct {
	Root     string   // module root; go build runs here
	Packages []string // module-relative package dirs (default KernelPackages)
}

// Collect compiles the configured packages and returns the gated
// diagnostics grouped by module-relative package dir.
func (c *Config) Collect() (map[string][]Diag, error) {
	pkgs := c.Packages
	if len(pkgs) == 0 {
		pkgs = KernelPackages()
	}
	args := []string{"build", "-gcflags=-m=1 -d=ssa/check_bce"}
	for _, p := range pkgs {
		args = append(args, "./"+p)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = c.Root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("compile gate: go build failed: %v\n%s", err, out)
	}
	raw := ParseDiagnostics(string(out))
	byPkg := map[string][]Diag{}
	funcs := newFuncLocator(c.Root)
	for _, d := range raw {
		d.Func = funcs.at(d.File, d.Line)
		pkg := path.Dir(d.File)
		byPkg[pkg] = append(byPkg[pkg], d)
	}
	for _, pkg := range pkgs {
		if _, ok := byPkg[pkg]; !ok {
			byPkg[pkg] = nil // clean package: still gets a (empty) baseline
		}
	}
	return byPkg, nil
}

// gated maps a raw compiler message to its gate category ("" = not
// gated: inlining chatter, "does not escape", parameter leaks).
func gated(msg string) string {
	switch {
	case msg == "Found IsInBounds":
		return "IsInBounds"
	case msg == "Found IsSliceInBounds":
		return "IsSliceInBounds"
	case strings.HasSuffix(msg, "escapes to heap"):
		if strings.HasSuffix(msg, "does not escape to heap") { // defensive; gc prints "does not escape"
			return ""
		}
		return "escapes to heap"
	case strings.Contains(msg, "moved to heap"):
		return "moved to heap"
	}
	return ""
}

// ParseDiagnostics extracts the gated diagnostics from go build
// -gcflags output. Lines look like
//
//	# spmv/internal/csr
//	internal/csr/csr.go:99:18: Found IsInBounds
//	internal/csr/csr.go:47:78: ~r0 escapes to heap
//
// Package header lines and non-gated messages are skipped; positions
// are kept as printed (module-relative when the build runs at the
// module root).
func ParseDiagnostics(output string) []Diag {
	var diags []Diag
	for _, line := range strings.Split(output, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// file:line:col: message
		parts := strings.SplitN(line, ":", 4)
		if len(parts) != 4 {
			continue
		}
		lineNo, err1 := strconv.Atoi(parts[1])
		col, err2 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil {
			continue
		}
		msg := strings.TrimSpace(parts[3])
		cat := gated(msg)
		if cat == "" {
			continue
		}
		diags = append(diags, Diag{
			File:     filepath.ToSlash(parts[0]),
			Line:     lineNo,
			Col:      col,
			Category: cat,
		})
	}
	return diags
}

// funcLocator maps file:line to the enclosing top-level function,
// parsing each referenced file once (no type checking needed).
type funcLocator struct {
	root  string
	fset  *token.FileSet
	files map[string][]funcSpan
}

type funcSpan struct {
	start, end int // line range, inclusive
	name       string
}

func newFuncLocator(root string) *funcLocator {
	return &funcLocator{root: root, fset: token.NewFileSet(), files: map[string][]funcSpan{}}
}

func (l *funcLocator) at(relFile string, line int) string {
	spans, ok := l.files[relFile]
	if !ok {
		spans = l.parse(relFile)
		l.files[relFile] = spans
	}
	for _, s := range spans {
		if s.start <= line && line <= s.end {
			return s.name
		}
	}
	return ""
}

func (l *funcLocator) parse(relFile string) []funcSpan {
	f, err := parser.ParseFile(l.fset, filepath.Join(l.root, filepath.FromSlash(relFile)), nil, 0)
	if err != nil {
		return nil
	}
	var spans []funcSpan
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		spans = append(spans, funcSpan{
			start: l.fset.Position(fd.Pos()).Line,
			end:   l.fset.Position(fd.End()).Line,
			name:  funcName(fd),
		})
	}
	return spans
}

// funcName renders a declaration name with its receiver type, e.g.
// "(*Matrix).SpMV" or "spmvRange".
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	switch t := recv.(type) {
	case *ast.StarExpr:
		if id, ok := t.X.(*ast.Ident); ok {
			return "(*" + id.Name + ")." + fd.Name.Name
		}
	case *ast.Ident:
		return "(" + t.Name + ")." + fd.Name.Name
	}
	return fd.Name.Name
}

// Counts collapses diagnostics into baseline form: key → occurrence
// count.
func Counts(diags []Diag) map[string]int {
	counts := map[string]int{}
	for _, d := range diags {
		counts[d.Key()]++
	}
	return counts
}

// Delta is one baseline difference.
type Delta struct {
	Key  string `json:"key"`
	Have int    `json:"have"` // current count
	Want int    `json:"want"` // baseline count
	Hot  bool   `json:"hot"`  // enclosing function is in the hot-kernel set
}

func (d Delta) String() string {
	parts := strings.SplitN(d.Key, "|", 3)
	where := d.Key
	if len(parts) == 3 {
		fn := parts[1]
		if fn == "" {
			fn = "<package scope>"
		}
		where = fmt.Sprintf("%s %s: %s", parts[0], fn, parts[2])
	}
	return fmt.Sprintf("%s (%d, baseline %d)", where, d.Have, d.Want)
}

// Compare diffs current diagnostics against a baseline. Regressions
// are keys whose count grew (or appeared); improvements are keys whose
// count shrank (or vanished) — stale baseline entries that an
// -update-baseline run locks in. isHot classifies function names; nil
// means nothing is hot.
func Compare(baseline map[string]int, diags []Diag, isHot func(string) bool) (regressions, improvements []Delta) {
	current := Counts(diags)
	keys := map[string]bool{}
	for k := range baseline {
		keys[k] = true
	}
	for k := range current {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		have, want := current[k], baseline[k]
		if have == want {
			continue
		}
		hot := false
		if isHot != nil {
			if parts := strings.SplitN(k, "|", 3); len(parts) == 3 {
				hot = isHot(parts[1])
			}
		}
		d := Delta{Key: k, Have: have, Want: want, Hot: hot}
		if have > want {
			regressions = append(regressions, d)
		} else {
			improvements = append(improvements, d)
		}
	}
	return regressions, improvements
}
