// Package suite assembles the flatvet analyzers into one run over a
// package tree, the way golang.org/x/tools's multichecker assembles
// go/analysis analyzers into a vet-style binary.
//
// Beyond fanning out the analyzers, the suite owns the whole-tree
// checks that no single analyzer can do: malformed //flatvet: comments
// (reported instead of silently waiving nothing), well-formed waivers
// naming a rule no check owns, and testonly, which needs every
// package's references at once (see package testonly).
package suite

import (
	"fmt"
	"go/token"
	"io"
	"path"
	"path/filepath"
	"sort"
	"strings"

	"flattree/internal/analysis"
	"flattree/internal/analysis/ctxflow"
	"flattree/internal/analysis/directive"
	"flattree/internal/analysis/errdrop"
	"flattree/internal/analysis/floatsum"
	"flattree/internal/analysis/hotalloc"
	"flattree/internal/analysis/load"
	"flattree/internal/analysis/maporder"
	"flattree/internal/analysis/sarif"
	"flattree/internal/analysis/seededrand"
	"flattree/internal/analysis/simclock"
	"flattree/internal/analysis/spanend"
	"flattree/internal/analysis/testonly"
)

// Analyzers returns the full flatvet suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		maporder.Analyzer,
		floatsum.Analyzer,
		seededrand.Analyzer,
		simclock.Analyzer,
		spanend.Analyzer,
		ctxflow.Analyzer,
		errdrop.Analyzer,
		hotalloc.Analyzer,
	}
}

// KnownRules returns, sorted, every directive rule name the suite
// accepts: each analyzer's waiver rule, testonly's waiver, and
// hotalloc's hotpath marker, which waives nothing but puts a function
// under contract.
func KnownRules() []string {
	var rules []string
	for _, a := range Analyzers() {
		if a.Directive != "" {
			rules = append(rules, a.Directive)
		}
	}
	rules = append(rules, testonly.Rule, hotalloc.Marker)
	sort.Strings(rules)
	return rules
}

// Diag is one finding, attributed to the analyzer that produced it.
// Directive-syntax findings carry Analyzer "flatvet".
type Diag struct {
	Position token.Position
	Analyzer string
	Message  string
}

// Options narrows a RunOpts.
type Options struct {
	// Only, when non-empty, restricts analysis to packages whose final
	// import-path segment is listed (the same matching rule analyzer
	// scopes use). Loading still covers the full pattern set so
	// cross-package facts stay complete.
	Only []string
}

// RunOpts loads patterns (default ./...) rooted at dir and applies every
// analyzer and the whole-tree checks, returning findings sorted by
// position. Type errors in the tree are a hard error: analysis over a
// broken tree reports nonsense.
func RunOpts(dir string, opts Options, patterns ...string) ([]Diag, error) {
	pkgs, err := load.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	prog, err := program(dir, pkgs, patterns)
	if err != nil {
		return nil, err
	}
	only := make(map[string]bool, len(opts.Only))
	for _, p := range opts.Only {
		only[p] = true
	}
	known := make(map[string]bool)
	for _, r := range KnownRules() {
		known[r] = true
	}
	knownList := strings.Join(KnownRules(), ", ")
	for _, pkg := range prog {
		if len(pkg.TypeErrors) > 0 {
			return nil, fmt.Errorf("%s does not type-check: %v", pkg.ImportPath, pkg.TypeErrors[0])
		}
	}
	var diags []Diag
	var targets []*load.Package
	for _, pkg := range pkgs {
		if len(pkg.TypeErrors) > 0 {
			return nil, fmt.Errorf("%s does not type-check: %v", pkg.ImportPath, pkg.TypeErrors[0])
		}
		if len(only) > 0 && !only[path.Base(pkg.ImportPath)] {
			continue
		}
		targets = append(targets, pkg)
		ix := directive.NewIndex(pkg.Fset, pkg.Files)
		for _, m := range ix.Malformed() {
			diags = append(diags, Diag{Position: pkg.Fset.Position(m.Pos), Analyzer: "flatvet", Message: m.Err})
		}
		for _, e := range ix.Entries() {
			if !known[e.D.Name] {
				diags = append(diags, Diag{
					Position: pkg.Fset.Position(e.Pos),
					Analyzer: "flatvet",
					Message:  fmt.Sprintf("unknown waiver rule %q (known: %s)", e.D.Name, knownList),
				})
			}
		}
		for _, a := range Analyzers() {
			ds, err := analysis.Run(a, pkg)
			if err != nil {
				return nil, err
			}
			for _, d := range ds {
				diags = append(diags, Diag{Position: pkg.Fset.Position(d.Pos), Analyzer: a.Name, Message: d.Message})
			}
		}
	}
	for _, f := range testonly.Check(prog, targets) {
		diags = append(diags, Diag{Position: f.Pos, Analyzer: testonly.Rule, Message: f.Message})
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags, nil
}

// program returns every package whose non-test files count as
// references for testonly: the whole module at dir (pkgs when patterns
// already load all of it) plus the packages of each nested module that
// replaces this one with a local path, as a separate benchmark module
// does to reach internal packages.
func program(dir string, pkgs []*load.Package, patterns []string) ([]*load.Package, error) {
	prog := pkgs
	if len(patterns) != 1 || patterns[0] != "./..." {
		var err error
		if prog, err = load.Load(dir, "./..."); err != nil {
			return nil, err
		}
	}
	nested, err := load.ReplacingModules(dir)
	if err != nil {
		return nil, err
	}
	for _, m := range nested {
		extra, err := load.Load(m, "./...")
		if err != nil {
			return nil, err
		}
		prog = append(prog[:len(prog):len(prog)], extra...)
	}
	return prog, nil
}

// Format writes diags one per line as "path:line:col: analyzer:
// message", with paths relative to base when possible.
func Format(w io.Writer, base string, diags []Diag) {
	for _, d := range diags {
		fmt.Fprintf(w, "%s:%d:%d: %s: %s\n", relPath(base, d.Position.Filename), d.Position.Line, d.Position.Column, d.Analyzer, d.Message)
	}
}

// ToSARIF converts diags into a single-run SARIF log whose driver
// declares every suite analyzer, testonly and the directive-syntax
// pseudo-rule "flatvet", and whose artifact URIs are relative to base when
// possible. The output is deterministic: rules sorted by ID, results
// in the order RunOpts produced them (already position-sorted).
func ToSARIF(base string, diags []Diag) sarif.Log {
	rules := []sarif.Rule{{
		ID:               "flatvet",
		ShortDescription: sarif.Message{Text: "//flatvet:<rule> <reason> waiver-directive syntax"},
	}}
	for _, a := range Analyzers() {
		rules = append(rules, sarif.Rule{ID: a.Name, ShortDescription: sarif.Message{Text: a.Doc}})
	}
	rules = append(rules, sarif.Rule{ID: testonly.Rule, ShortDescription: sarif.Message{Text: testonly.Doc}})
	sort.Slice(rules, func(i, j int) bool { return rules[i].ID < rules[j].ID })
	results := make([]sarif.Result, 0, len(diags))
	for _, d := range diags {
		results = append(results, sarif.Result{
			RuleID:  d.Analyzer,
			Level:   "warning",
			Message: sarif.Message{Text: d.Message},
			Locations: []sarif.Location{{PhysicalLocation: sarif.PhysicalLocation{
				ArtifactLocation: sarif.ArtifactLocation{URI: relPath(base, d.Position.Filename)},
				Region:           sarif.Region{StartLine: d.Position.Line, StartColumn: d.Position.Column},
			}}},
		})
	}
	return sarif.New(sarif.Driver{Name: "flatvet", Rules: rules}, results)
}

// relPath renders name relative to base (slash-separated) when that
// stays inside base, and verbatim otherwise.
func relPath(base, name string) string {
	if rel, err := filepath.Rel(base, name); err == nil && !filepath.IsAbs(rel) {
		return filepath.ToSlash(rel)
	}
	return name
}
