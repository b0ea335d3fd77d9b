package srccheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Issue is one rule finding, located and attributed to its enclosing
// function so the allowlist can target it.
type Issue struct {
	Rule string         `json:"rule"`
	Pos  token.Position `json:"-"`
	File string         `json:"file"` // module-relative path
	Line int            `json:"line"`
	Col  int            `json:"col"`
	Func string         `json:"func,omitempty"` // enclosing function name ("" at package scope)
	Msg  string         `json:"msg"`
}

func (i Issue) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", i.File, i.Line, i.Col, i.Rule, i.Msg)
}

// Rule is one project-specific check. Check is called once per package
// and reports findings through report.
type Rule interface {
	Name() string
	// Doc is a one-line description shown by spmvlint's usage text.
	Doc() string
	Check(m *Module, pkg *Package, report func(pos token.Pos, format string, args ...any))
}

// DefaultRules returns the full rule suite in stable order.
func DefaultRules() []Rule {
	return []Rule{
		panicRule{},
		verifierRule{},
		droppedErrRule{},
		floatEqRule{},
		hotPathRule{},
		lockbalanceRule{},
		goroleakRule{},
		ctxflowRule{},
		wgbalanceRule{},
		deferloopRule{},
	}
}

// Run executes the rules over every package of the module, resolves
// positions and enclosing functions, and filters through the allowlist.
// Issues come back sorted by file, line and column.
func Run(m *Module, rules []Rule, allow *Allowlist) []Issue {
	var issues []Issue
	for _, pkg := range m.Pkgs {
		funcs := newFuncIndex(m.Fset, pkg)
		for _, rule := range rules {
			rule.Check(m, pkg, func(pos token.Pos, format string, args ...any) {
				p := m.Fset.Position(pos)
				rel, err := filepath.Rel(m.Root, p.Filename)
				if err != nil {
					rel = p.Filename
				}
				rel = filepath.ToSlash(rel)
				fn := funcs.at(pos)
				if allow != nil && allow.Match(rule.Name(), rel, fn) {
					return
				}
				issues = append(issues, Issue{
					Rule: rule.Name(),
					Pos:  p,
					File: rel,
					Line: p.Line,
					Col:  p.Column,
					Func: fn,
					Msg:  fmt.Sprintf(format, args...),
				})
			})
		}
	}
	sort.Slice(issues, func(i, j int) bool {
		a, b := issues[i], issues[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
	return issues
}

// funcIndex maps positions to their enclosing top-level function
// declaration. Function literals attribute to the declaration that
// contains them.
type funcIndex struct {
	spans []funcSpan
}

type funcSpan struct {
	start, end token.Pos
	name       string
}

func newFuncIndex(fset *token.FileSet, pkg *Package) *funcIndex {
	idx := &funcIndex{}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			idx.spans = append(idx.spans, funcSpan{start: fd.Pos(), end: fd.End(), name: fd.Name.Name})
		}
	}
	return idx
}

func (idx *funcIndex) at(pos token.Pos) string {
	for _, s := range idx.spans {
		if s.start <= pos && pos < s.end {
			return s.name
		}
	}
	return ""
}

// IsHotFunc reports whether a function name belongs to the hot-kernel
// set: the SpMV entry points, the row/unit decode loops and the dense
// vector kernels the solvers hang off (CG's blocked sweeps included).
// The BCE/escape gate and the hot-path purity rule share this
// definition. Qualified names ("(*Matrix).SpMV") match on their last
// segment.
func IsHotFunc(name string) bool {
	if i := strings.LastIndex(name, "."); i >= 0 {
		name = name[i+1:]
	}
	switch name {
	case "SpMV", "SpMVAdd", "SpMVBatch", "SpMVPartial",
		"Mul", "MulAdd", "MulTrans",
		"Dot", "Axpy", "DotBlocks", "AxpyDotBlocks", "axpyDot", "AxpyXpby", "Hadamard",
		"DecodeAt", "DecodeUnit", "SkipRows", "dotRange",
		"runChunk", "runNNZChunk", "runSymJob",
		"zeroRows":
		return true
	}
	for _, prefix := range []string{"spmv", "decode", "addRange"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// IsRequestPathFunc reports whether a function name sits on the
// server's per-request path: the HTTP handlers, the multiply wire
// codec, the coalescer's enqueue/take/execute cycle, the registry read
// path, the executor pool's per-run machinery — plus everything IsHotFunc
// already covers. The allocation gate holds these to their baselined
// heap-allocation counts: a new escape in a handler shows up as a
// per-request GC tax long before it shows up in a profile. Qualified
// names ("(*coalescer).enqueue") match on their last segment.
func IsRequestPathFunc(name string) bool {
	if i := strings.LastIndex(name, "."); i >= 0 {
		name = name[i+1:]
	}
	if IsHotFunc(name) {
		return true
	}
	switch name {
	case "ServeHTTP",
		"enqueue", "take", "execute", "loop", "depth",
		"get", "recordWidth",
		"requestDeadline", "clientID", "acquireClient", "releaseClient",
		"statusFor", "httpError", "writeVector",
		"readBody", "parseX", "skipWS", "appendY",
		"parseNumber", "scanDigits", "divPow10",
		"appendFloat", "appendShortest", "put8", "rop",
		"flog10pow2", "flog10ThreeQuartersPow2", "flog2pow10",
		"Run", "RunCtx", "RunBatch", "RunBatchCtx",
		"dispatch", "worker", "drain", "ready", "multiply", "once":
		return true
	}
	return strings.HasPrefix(name, "handle")
}

// isLibraryPkg reports whether a package is library code: the module
// root package or anything under internal/.
func isLibraryPkg(pkg *Package) bool {
	return pkg.RelPath == "" || pkg.RelPath == "internal" ||
		strings.HasPrefix(pkg.RelPath, "internal/")
}

// isCmdPkg reports whether a package is a command.
func isCmdPkg(pkg *Package) bool {
	return pkg.RelPath == "cmd" || strings.HasPrefix(pkg.RelPath, "cmd/")
}
