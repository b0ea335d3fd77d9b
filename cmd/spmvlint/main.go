// Command spmvlint runs the project's static-analysis gate: the
// source-level rule suite of internal/srccheck (layer 1), the
// compiled-code BCE/escape regression gate of internal/srccheck/compile
// over the kernel packages (layer 2), and the request-path
// heap-allocation gate over the serving stack (layer 3).
//
// Usage:
//
//	spmvlint [flags] [./...]
//
// With no package arguments (or "./..."), the whole module is checked.
// Exit status is 1 when any rule fires, the kernel gate regresses in a
// hot function, or the alloc gate regresses anywhere, 2 on internal
// errors, 0 otherwise. A finding cannot be suppressed: fix it.
//
// Flags:
//
//	-update-baseline  rewrite the compile/alloc-gate baselines from current diagnostics
//	-disable=LIST     comma-separated rule names to skip ("compile" skips
//	                  the BCE/escape gate, "alloc" the allocation gate)
//	-root=DIR         module root (default: nearest go.mod at or above the cwd)
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"spmv/internal/srccheck"
	"spmv/internal/srccheck/compile"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("spmvlint", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	update := fs.Bool("update-baseline", false, "rewrite compile-gate baselines from current diagnostics")
	disable := fs.String("disable", "", "comma-separated rule names to skip (\"compile\" skips the BCE/escape gate)")
	rootFlag := fs.String("root", "", "module root (default: nearest go.mod at or above the cwd)")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: spmvlint [flags] [./...]\n\nrules:\n")
		for _, r := range srccheck.DefaultRules() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", r.Name(), r.Doc())
		}
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", "compile", "BCE/escape diagnostics must not regress against internal/srccheck/baseline")
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", "alloc", "request-path heap allocations must not regress against internal/srccheck/baseline")
		fmt.Fprintf(os.Stderr, "\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	root := *rootFlag
	if root == "" {
		var err error
		root, err = findModuleRoot()
		if err != nil {
			fmt.Fprintf(os.Stderr, "spmvlint: %v\n", err)
			return 2
		}
	}
	disabled := map[string]bool{}
	for _, name := range strings.Split(*disable, ",") {
		if name = strings.TrimSpace(name); name != "" {
			disabled[name] = true
		}
	}
	prefixes := packagePrefixes(fs.Args())

	// Layer 1: source rules.
	var rules []srccheck.Rule
	for _, r := range srccheck.DefaultRules() {
		if !disabled[r.Name()] {
			rules = append(rules, r)
		}
	}
	var issues []srccheck.Issue
	if len(rules) > 0 {
		mod, err := srccheck.Load(root)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spmvlint: %v\n", err)
			return 2
		}
		issues = filterIssues(srccheck.Run(mod, rules), prefixes)
	}

	// Layers 2 and 3: the BCE/escape kernel gate and the request-path
	// allocation gate share one instrumented build over the union of
	// their package sets.
	var regressions, improvements []compile.Delta
	var allocRegressions, allocImprovements []compile.Delta
	if !disabled["compile"] || !disabled["alloc"] {
		union := append([]string{}, compile.KernelPackages()...)
		seen := map[string]bool{}
		for _, p := range union {
			seen[p] = true
		}
		for _, p := range compile.AllocPackages() {
			if !seen[p] {
				union = append(union, p)
			}
		}
		cfg := &compile.Config{Root: root, Packages: union}
		byPkg, err := cfg.Collect()
		if err != nil {
			fmt.Fprintf(os.Stderr, "spmvlint: %v\n", err)
			return 2
		}
		baselineDir := filepath.Join(root, "internal", "srccheck", "baseline")
		// gate diffs diags against the baseline named key, or with
		// -update-baseline rewrites the baseline instead.
		gate := func(key string, diags []compile.Diag, isHot func(string) bool) (reg, imp []compile.Delta, err error) {
			if *update {
				return nil, nil, compile.WriteBaseline(baselineDir, key, diags)
			}
			base, err := compile.LoadBaseline(baselineDir, key)
			if err != nil {
				return nil, nil, err
			}
			reg, imp = compile.Compare(base, diags, isHot)
			return reg, imp, nil
		}
		if !disabled["compile"] {
			for _, pkg := range compile.KernelPackages() {
				reg, imp, err := gate(pkg, byPkg[pkg], srccheck.IsHotFunc)
				if err != nil {
					fmt.Fprintf(os.Stderr, "spmvlint: %v\n", err)
					return 2
				}
				regressions = append(regressions, reg...)
				improvements = append(improvements, imp...)
			}
		}
		if !disabled["alloc"] {
			for _, pkg := range compile.AllocPackages() {
				filtered := compile.FilterAlloc(byPkg[pkg], srccheck.IsRequestPathFunc)
				reg, imp, err := gate(compile.AllocBaselineKey(pkg), filtered, nil)
				if err != nil {
					fmt.Fprintf(os.Stderr, "spmvlint: %v\n", err)
					return 2
				}
				allocRegressions = append(allocRegressions, reg...)
				allocImprovements = append(allocImprovements, imp...)
			}
		}
	}

	// Report. Hot-function kernel regressions and every alloc-gate
	// regression fail the run; cold kernel regressions and stale
	// baseline entries are advisory.
	for _, issue := range issues {
		fmt.Println(issue.String())
	}
	gateErr := len(allocRegressions) > 0
	for _, d := range regressions {
		verdict := "warning: new compiler diagnostic (cold path)"
		if d.Hot {
			verdict = "compile gate: new diagnostic in hot kernel"
			gateErr = true
		}
		fmt.Printf("%s: %s\n", verdict, d.String())
	}
	for _, d := range allocRegressions {
		fmt.Printf("alloc gate: new heap allocation on the request path: %s\n", d.String())
	}
	for _, d := range improvements {
		fmt.Printf("stale baseline entry (diagnostics improved — lock in with -update-baseline): %s\n", d.String())
	}
	for _, d := range allocImprovements {
		fmt.Printf("stale alloc baseline entry (allocations improved — lock in with -update-baseline): %s\n", d.String())
	}
	if len(issues) > 0 || gateErr {
		return 1
	}
	return 0
}

// findModuleRoot walks upward from the cwd to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod at or above the working directory")
		}
		dir = parent
	}
}

// packagePrefixes converts package arguments ("./...",
// "./internal/...", "internal/csr") into module-relative path
// prefixes; empty means the whole module.
func packagePrefixes(args []string) []string {
	var prefixes []string
	for _, arg := range args {
		p := strings.TrimPrefix(filepath.ToSlash(arg), "./")
		p = strings.TrimSuffix(p, "...")
		p = strings.TrimSuffix(p, "/")
		if p == "" {
			return nil // ./... covers everything
		}
		prefixes = append(prefixes, p)
	}
	return prefixes
}

// filterIssues keeps issues whose file falls under one of the
// prefixes (all issues when prefixes is empty).
func filterIssues(issues []srccheck.Issue, prefixes []string) []srccheck.Issue {
	if len(prefixes) == 0 {
		return issues
	}
	var out []srccheck.Issue
	for _, issue := range issues {
		for _, p := range prefixes {
			if strings.HasPrefix(issue.File, p+"/") || strings.HasPrefix(issue.File, p) {
				out = append(out, issue)
				break
			}
		}
	}
	return out
}
