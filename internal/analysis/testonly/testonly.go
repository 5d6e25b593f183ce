// Package testonly finds test-only code in the production build: an
// exported function or method of an internal/ package that no
// production file references.
//
// Apart from a module's public packages, everything lives under
// internal/, so an exported internal function that only _test.go files
// call is compiled into every binary and serves no workload. Each one
// should be deleted, moved into a _test.go file of its own package, or
// waived with //flatvet:testonly <reason> naming the production user it
// is waiting for.
//
// No per-package analyzer can see this: the references that count live
// in other packages, and in other modules that import the tree through
// a replace directive. Check therefore runs once over the whole loaded
// program:
//
//   - The program is every package reachable through non-test imports
//     from a package outside internal/ (binaries, examples, a public
//     facade, and the packages of nested modules). A package only tests
//     import is outside every binary already, so it is not checked.
//   - A function counts as referenced when a non-test file of a
//     reachable package names it, other than from inside its own body.
//   - A method also counts as referenced when its type implements an
//     interface with a method of that name that the program can see:
//     one declared or written in a reachable package or in any package
//     they import (fmt.Stringer, error, sort.Interface, http.Handler).
//
// Packages are type-checked one at a time against export data, so the
// same function has distinct objects in different packages; references
// and interface methods are matched by full name and signature text.
package testonly

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"flattree/internal/analysis/directive"
	"flattree/internal/analysis/load"
)

// Rule is the //flatvet:testonly waiver rule.
const Rule = "testonly"

// Doc describes the check for usage text and SARIF rule metadata.
const Doc = "flags exported functions and methods of internal/ packages that no production file references"

// Finding is one unreferenced exported function or method.
type Finding struct {
	Pos     token.Position
	Message string
}

// Check reports, in targets, every exported function or method of a
// reachable internal/ package that prog never references. prog is the
// whole program: every package whose non-test files count as callers.
// Each target must also appear in prog (by import path).
func Check(prog, targets []*load.Package) []Finding {
	byPath := make(map[string]*load.Package, len(prog))
	for _, p := range prog {
		byPath[p.ImportPath] = p
	}
	reached := reachable(prog, byPath)

	refs := make(map[string]bool)
	ifaces := newIfaceSet()
	for _, p := range prog {
		if !reached[p.ImportPath] {
			continue
		}
		collectRefs(p, refs)
		ifaces.addPackage(p)
	}

	var out []Finding
	for _, p := range targets {
		if !isInternal(p.ImportPath) || !reached[p.ImportPath] {
			continue
		}
		waivers := directive.NewIndex(p.Fset, p.Files)
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok || refs[fn.FullName()] || ifaces.implemented(fn) {
					continue
				}
				if _, ok := waivers.Waived(Rule, fd.Name.Pos()); ok {
					continue
				}
				out = append(out, Finding{
					Pos:     p.Fset.Position(fd.Name.Pos()),
					Message: fmt.Sprintf("exported %s has no reference outside tests; delete it, move it into a _test.go file, or add //flatvet:%s <reason>", describe(fn), Rule),
				})
			}
		}
	}
	return out
}

// isInternal reports whether importPath has an "internal" segment.
func isInternal(importPath string) bool {
	for _, seg := range strings.Split(importPath, "/") {
		if seg == "internal" {
			return true
		}
	}
	return false
}

// reachable returns the import paths reached from every non-internal
// package of prog through the non-test imports of loaded packages.
func reachable(prog []*load.Package, byPath map[string]*load.Package) map[string]bool {
	seen := make(map[string]bool)
	var stack []*load.Package
	for _, p := range prog {
		if !isInternal(p.ImportPath) && !seen[p.ImportPath] {
			seen[p.ImportPath] = true
			stack = append(stack, p)
		}
	}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, imp := range p.Types.Imports() {
			q, ok := byPath[imp.Path()]
			if ok && !seen[q.ImportPath] {
				seen[q.ImportPath] = true
				stack = append(stack, q)
			}
		}
	}
	return seen
}

// collectRefs adds the full name of every function or method p's files
// name, except a function naming itself inside its own declaration.
func collectRefs(p *load.Package, refs map[string]bool) {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			var self types.Object
			if fd, ok := d.(*ast.FuncDecl); ok {
				self = p.Info.Defs[fd.Name]
			}
			ast.Inspect(d, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				fn, ok := p.Info.Uses[id].(*types.Func)
				if !ok {
					return true
				}
				if fn = fn.Origin(); fn != self {
					refs[fn.FullName()] = true
				}
				return true
			})
		}
	}
}

// describe names fn for a diagnostic: "func graph.Valid" or "method
// (*graph.Graph).Neighbors".
func describe(fn *types.Func) string {
	qual := func(p *types.Package) string { return p.Name() }
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return "func " + fn.Pkg().Name() + "." + fn.Name()
	}
	return "method (" + types.TypeString(sig.Recv().Type(), qual) + ")." + fn.Name()
}

// methods maps a method name to its signature text.
type methods map[string]string

// sigText renders a method signature for comparison across
// type-checker instances: parameter and result types only (no names,
// no receiver), packages by full path, and the empty interface as any
// however it was spelled.
func sigText(t types.Type) string {
	sig := t.(*types.Signature)
	var b strings.Builder
	tuple := func(t *types.Tuple) {
		b.WriteByte('(')
		for i := 0; i < t.Len(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(types.TypeString(t.At(i).Type(), func(p *types.Package) string { return p.Path() }))
		}
		b.WriteByte(')')
	}
	tuple(sig.Params())
	if sig.Variadic() {
		b.WriteString("...")
	}
	tuple(sig.Results())
	return strings.ReplaceAll(b.String(), "interface{}", "any")
}

// ifaceSet is every method-bearing interface the program can see, in
// the textual form that compares across type-checker instances.
type ifaceSet struct {
	seen   map[*types.Interface]bool
	pkgs   map[*types.Package]bool
	byName map[string][]methods // method name -> interfaces declaring it
}

func newIfaceSet() *ifaceSet {
	s := &ifaceSet{
		seen:   make(map[*types.Interface]bool),
		pkgs:   make(map[*types.Package]bool),
		byName: make(map[string][]methods),
	}
	s.addType(types.Universe.Lookup("error").Type())
	return s
}

// addPackage adds the interfaces p's code writes and those declared in
// p and, transitively, in every package it imports.
func (s *ifaceSet) addPackage(p *load.Package) {
	for _, tv := range p.Info.Types {
		s.addType(tv.Type)
	}
	s.addScope(p.Types)
}

func (s *ifaceSet) addScope(pkg *types.Package) {
	if s.pkgs[pkg] {
		return
	}
	s.pkgs[pkg] = true
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			s.addType(tn.Type())
		}
	}
	for _, imp := range pkg.Imports() {
		s.addScope(imp)
	}
}

func (s *ifaceSet) addType(t types.Type) {
	it, ok := t.Underlying().(*types.Interface)
	if !ok || s.seen[it] || it.NumMethods() == 0 {
		return
	}
	s.seen[it] = true
	ms := make(methods, it.NumMethods())
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		ms[m.Name()] = sigText(m.Type())
	}
	for name := range ms {
		s.byName[name] = append(s.byName[name], ms)
	}
}

// implemented reports whether fn is a method whose receiver type (or a
// pointer to it) implements a seen interface declaring fn's name.
func (s *ifaceSet) implemented(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	candidates := s.byName[fn.Name()]
	if len(candidates) == 0 {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	mset := types.NewMethodSet(types.NewPointer(t))
	have := make(methods, mset.Len())
	for i := 0; i < mset.Len(); i++ {
		m := mset.At(i).Obj()
		have[m.Name()] = sigText(m.Type())
	}
	for _, iface := range candidates {
		ok := true
		for name, sig := range iface {
			if have[name] != sig {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}
