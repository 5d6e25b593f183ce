// Package spanend flags telemetry spans that are started but never
// ended.
//
// A span from StartRootSpan or a parent's Child whose End is never
// called stays open forever: a root never reaches the export, a child
// keeps a zero duration, and the spans below it hang off a phase that
// never closes. The analyzer reports a start call
// when (a) its result is discarded outright, or (b) the variable it is
// assigned to neither has .End invoked nor escapes the function (as an
// argument, return value, struct field, or reassignment) anywhere in
// the enclosing function body. The escape condition keeps the check
// conservative: a span handed to another function is that function's
// responsibility, and path-sensitive leaks (ended on one branch only)
// are out of scope.
//
// The //flatvet:span <reason> waiver covers intentionally process-long
// spans.
package spanend

import (
	"go/ast"
	"go/types"

	"flattree/internal/analysis"
)

// startFuncs are the telemetry span constructors: the root constructor
// (package function or Registry method) and the Span method that opens a
// timed child. Record returns an ended span, so it is not one.
var startFuncs = map[string]bool{"StartRootSpan": true, "Child": true}

var Analyzer = &analysis.Analyzer{
	Name:      "spanend",
	Doc:       "flags telemetry StartRootSpan/Child results that are discarded or never reach End in the enclosing function",
	Directive: "span",
	Scope: func(importPath string) bool {
		// The telemetry package itself implements the constructors and End.
		return analysis.LastSegment(importPath) != "telemetry"
	},
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		analysis.WalkStack(f, func(n ast.Node, stack []ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !startFuncs[sel.Sel.Name] {
				return
			}
			path, ok := analysis.SelPkgPath(pass.TypesInfo, sel)
			if !ok || analysis.LastSegment(path) != "telemetry" {
				return
			}
			check(pass, call, sel.Sel.Name, stack)
		})
	}
	return nil
}

func check(pass *analysis.Pass, call *ast.CallExpr, name string, stack []ast.Node) {
	if len(stack) == 0 {
		return
	}
	switch parent := stack[len(stack)-1].(type) {
	case *ast.ExprStmt:
		pass.Reportf(call.Pos(), "result of %s discarded; the span can never be ended", name)
	case *ast.AssignStmt:
		// Only handle `v := Start...` / `v = Start...` with the call as
		// the matching single RHS; anything fancier (multi-assign,
		// struct field destination) counts as an escape.
		idx := -1
		for i, r := range parent.Rhs {
			if r == ast.Expr(call) {
				idx = i
			}
		}
		if idx < 0 || len(parent.Lhs) != len(parent.Rhs) {
			return
		}
		id, ok := parent.Lhs[idx].(*ast.Ident)
		if !ok {
			return // span stored into a field/index: escapes
		}
		if id.Name == "_" {
			pass.Reportf(call.Pos(), "result of %s assigned to _; the span can never be ended", name)
			return
		}
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = pass.TypesInfo.Uses[id]
		}
		if obj == nil {
			return
		}
		enclosing := analysis.EnclosingFunc(stack)
		if enclosing == nil {
			return
		}
		if !endsOrEscapes(pass, obj, id, analysis.FuncBody(enclosing)) {
			pass.Reportf(call.Pos(), "span from %s never reaches End in this function", name)
		}
	}
	// Any other parent (call argument, return, composite literal, ...)
	// passes the span along: the receiver owns ending it.
}

// endsOrEscapes reports whether the span object obj, defined at def,
// has .End selected on it (including `defer v.End()`) or escapes —
// any use of the variable other than selecting a method/field on it.
func endsOrEscapes(pass *analysis.Pass, obj types.Object, def *ast.Ident, body *ast.BlockStmt) bool {
	found := false
	analysis.WalkStack(body, func(n ast.Node, stack []ast.Node) {
		if found {
			return
		}
		use, ok := n.(*ast.Ident)
		if !ok || use == def || pass.TypesInfo.Uses[use] != obj {
			return
		}
		if len(stack) > 0 {
			if sel, ok := stack[len(stack)-1].(*ast.SelectorExpr); ok && sel.X == ast.Expr(use) {
				if sel.Sel.Name == "End" {
					found = true // v.End call (or method value): ended
				}
				// Other selections (v.SetAttr(...), v.Name) neither end
				// the span nor let it escape; keep scanning.
				return
			}
		}
		// Argument, return value, assignment, composite literal, send,
		// ...: the span escapes, its new owner is responsible.
		found = true
	})
	return found
}
