// Package srccheck is the source layer of spmvlint, the project's
// static-analysis gate. It loads every non-test package of the module
// with the standard library's go/parser and go/types (no external
// tooling), then runs the project-specific rules of DefaultRules over
// the typed ASTs; each rule's type comment says what it enforces.
//
// The companion package srccheck/compile adds the second layer: a
// bounds-check-elimination and escape-analysis regression gate over the
// compiler's -m / -d=ssa/check_bce diagnostics.
package srccheck

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked non-test package of the
// module under analysis.
type Package struct {
	ImportPath string // full import path, e.g. "spmv/internal/csr"
	RelPath    string // module-relative dir ("" for the root package)
	Dir        string // absolute directory
	Filenames  []string
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Module is the analysis unit: the whole module rooted at Root.
type Module struct {
	Root string // absolute module root (directory of go.mod)
	Path string // module path from go.mod
	Fset *token.FileSet
	Pkgs []*Package // sorted by import path

	byPath map[string]*Package
}

// skipDir reports whether a directory is excluded from the walk.
func skipDir(name string) bool {
	return strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
		name == "testdata" || name == "vendor" || name == "node_modules"
}

// Load parses and type-checks every non-test package under root, which
// must contain a go.mod. Test files (_test.go) are excluded: the rules
// govern library and command code, not tests.
func Load(root string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &Module{
		Root:   root,
		Path:   modPath,
		Fset:   token.NewFileSet(),
		byPath: map[string]*Package{},
	}
	if err := m.parseAll(); err != nil {
		return nil, err
	}
	if err := m.typeCheckAll(); err != nil {
		return nil, err
	}
	return m, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("srccheck: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			p = strings.Trim(p, `"`)
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("srccheck: no module directive in %s", gomod)
}

// parseAll walks the module tree and parses every non-test .go file,
// grouping files into one package per directory.
func (m *Module) parseAll() error {
	err := filepath.WalkDir(m.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != m.Root && skipDir(d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") || strings.HasSuffix(d.Name(), "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		// Respect //go:build constraints and GOOS/GOARCH filename
		// suffixes: a file excluded from the current configuration
		// would double-declare symbols (or reference missing ones) and
		// break type checking of its package.
		if match, err := build.Default.MatchFile(dir, d.Name()); err != nil || !match {
			return err
		}
		rel, err := filepath.Rel(m.Root, dir)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if rel == "." {
			rel = ""
		}
		importPath := m.Path
		if rel != "" {
			importPath = m.Path + "/" + rel
		}
		pkg := m.byPath[importPath]
		if pkg == nil {
			pkg = &Package{ImportPath: importPath, RelPath: rel, Dir: dir}
			m.byPath[importPath] = pkg
			m.Pkgs = append(m.Pkgs, pkg)
		}
		file, err := parser.ParseFile(m.Fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("srccheck: %w", err)
		}
		pkg.Filenames = append(pkg.Filenames, path)
		pkg.Files = append(pkg.Files, file)
		return nil
	})
	if err != nil {
		return err
	}
	sort.Slice(m.Pkgs, func(i, j int) bool { return m.Pkgs[i].ImportPath < m.Pkgs[j].ImportPath })
	return nil
}

// typeCheckAll type-checks every module package. The importer checks
// a module-internal import the first time a package asks for it, so
// each package is checked after its dependencies without sorting
// them; everything else (the standard library) goes through the
// source importer, keeping the analyzer free of compiled export data.
func (m *Module) typeCheckAll() error {
	imp := &moduleImporter{
		mod:      m,
		std:      importer.ForCompiler(m.Fset, "source", nil),
		checking: map[*Package]bool{},
	}
	for _, p := range m.Pkgs {
		if _, err := imp.check(p); err != nil {
			return err
		}
	}
	return nil
}

// moduleImporter resolves module-internal paths by checking the
// module's own packages and defers to the source importer for the rest.
type moduleImporter struct {
	mod      *Module
	std      types.Importer
	checking map[*Package]bool
}

func (i *moduleImporter) Import(path string) (*types.Package, error) {
	if p := i.mod.byPath[path]; p != nil {
		return i.check(p)
	}
	return i.std.Import(path)
}

// check type-checks p once, its module-internal imports first.
func (i *moduleImporter) check(p *Package) (*types.Package, error) {
	if p.Types != nil {
		return p.Types, nil
	}
	if i.checking[p] {
		return nil, fmt.Errorf("srccheck: import cycle through %s", p.ImportPath)
	}
	i.checking[p] = true
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	cfg := types.Config{Importer: i}
	tpkg, err := cfg.Check(p.ImportPath, i.mod.Fset, p.Files, info)
	if err != nil {
		return nil, fmt.Errorf("srccheck: type-checking %s: %w", p.ImportPath, err)
	}
	p.Types, p.Info = tpkg, info
	return tpkg, nil
}
