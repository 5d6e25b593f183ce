// Package ctxflow enforces context threading on the daemon's request
// paths.
//
// Every request into flatd carries a context (deadline, cancellation);
// work done on behalf of that request must observe it, or a cancelled
// client keeps consuming the daemon's CPU. Inside its scope packages
// the analyzer flags:
//
//  1. context.Background() / context.TODO() in any function that
//     already has a context in scope — a context.Context parameter or a
//     *http.Request parameter (r.Context()) — severing the caller's
//     deadline from the work below it.
//  2. The same calls in functions reachable from a request-path root (a
//     function with a *http.Request parameter) through intra-package
//     calls, using the loader's per-function summary: a helper three
//     calls below a handler cannot quietly restart the context chain.
//  3. A context.Context parameter that the function never reads
//     (including one named _): the signature promises flow the body
//     drops.
//
// Process roots (main, daemon bootstrap) legitimately create contexts;
// they have neither a context parameter nor a request parameter and are
// unreachable from handlers, so they never match. Findings are
// waivable with //flatvet:ctx <reason> — the canonical residual is a
// shutdown drain that must outlive the cancelled serve context.
package ctxflow

import (
	"go/ast"
	"go/types"

	"flattree/internal/analysis"
	"flattree/internal/analysis/load"
)

// Packages is the final-segment scope: the daemon's service layer and
// binary.
var Packages = []string{"service", "flatd"}

var Analyzer = &analysis.Analyzer{
	Name:      "ctxflow",
	Doc:       "requires request-path functions to thread context.Context instead of minting context.Background/TODO or dropping the parameter",
	Directive: "ctx",
	Scope:     analysis.SegmentScope(Packages...),
	Run:       run,
}

func run(pass *analysis.Pass) error {
	sum := pass.Loaded.Summary()
	reachable := requestReachable(sum)

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fact := sum.Fact(obj)
			if fact == nil {
				continue
			}

			// Rule 3: a context parameter the body never reads.
			if fact.HasCtx && !fact.CtxUsed {
				pass.Reportf(fd.Name.Pos(), "%s takes a context.Context it never uses; thread it to callees or drop the parameter (or waive //flatvet:ctx <reason>)", fd.Name.Name)
			}

			// Rules 1 and 2: minting a fresh root context below the flow.
			hasScope := fact.HasCtx || fact.HasRequest
			inRequestPath := reachable[obj]
			if !hasScope && !inRequestPath {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				pkg, name, ok := analysis.PkgFuncCall(pass.TypesInfo, call)
				if !ok || pkg != "context" || (name != "Background" && name != "TODO") {
					return true
				}
				switch {
				case hasScope:
					pass.Reportf(call.Pos(), "context.%s() severs the in-scope context; thread the caller's ctx (or waive //flatvet:ctx <reason>)", name)
				case inRequestPath:
					pass.Reportf(call.Pos(), "context.%s() in a function reachable from a request handler; accept and thread a ctx (or waive //flatvet:ctx <reason>)", name)
				}
				return true
			})
		}
	}
	return nil
}

// requestReachable returns the functions reachable from any
// request-path root (*http.Request parameter) through intra-package
// calls, roots excluded unless they are themselves called from another
// root.
func requestReachable(sum *load.Summary) map[*types.Func]bool {
	reach := map[*types.Func]bool{}
	var visit func(f *types.Func)
	visit = func(f *types.Func) {
		fact := sum.Fact(f)
		if fact == nil {
			return
		}
		for _, callee := range fact.Calls {
			if !reach[callee] {
				reach[callee] = true
				visit(callee)
			}
		}
	}
	for obj, fact := range sum.Funcs {
		if fact.HasRequest {
			visit(obj)
		}
	}
	return reach
}
