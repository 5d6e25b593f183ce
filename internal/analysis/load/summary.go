package load

// This file is the loader's per-function summary pass: one cheap walk
// per declared function recording the facts ctxflow needs to reason
// across intra-package call chains without whole-program analysis —
// does the function take (and use) a context.Context, does it look like
// a request-path root (*http.Request parameter), and which
// package-local functions does it call. The facts are syntactic; call
// edges and identifier uses include nested function literals, because a
// closure built in a request path usually runs in that request path.

import (
	"go/ast"
	"go/types"
)

// FuncFact is the summary of one declared function.
type FuncFact struct {
	// HasCtx reports a context.Context parameter; CtxUsed whether that
	// parameter is referenced anywhere in the body (literals included).
	HasCtx  bool
	CtxUsed bool
	// HasRequest reports a *net/http.Request parameter — the shape of a
	// request-path root.
	HasRequest bool

	// Calls lists the package-local functions and methods this function
	// calls (literal bodies included), in source order, deduplicated.
	Calls []*types.Func
}

// Summary holds the per-function facts of one package.
type Summary struct {
	Funcs map[*types.Func]*FuncFact
}

// Summary computes (once) and returns the package's per-function facts.
func (p *Package) Summary() *Summary {
	p.summaryOnce.Do(func() { p.summary = computeSummary(p) })
	return p.summary
}

// Fact returns the summary of the function declaring obj, or nil.
func (s *Summary) Fact(obj *types.Func) *FuncFact {
	if s == nil {
		return nil
	}
	return s.Funcs[obj]
}

func computeSummary(p *Package) *Summary {
	s := &Summary{Funcs: make(map[*types.Func]*FuncFact)}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fact := &FuncFact{}
			sig := obj.Type().(*types.Signature)
			var ctxParam *types.Var
			for i := 0; i < sig.Params().Len(); i++ {
				prm := sig.Params().At(i)
				if isContextType(prm.Type()) {
					fact.HasCtx = true
					ctxParam = prm
				}
				if isRequestType(prm.Type()) {
					fact.HasRequest = true
				}
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if ctxParam != nil && p.Info.Uses[n] == ctxParam {
						fact.CtxUsed = true
					}
				case *ast.CallExpr:
					if callee := staticCallee(p.Info, n); callee != nil && callee.Pkg() == p.Types {
						fact.Calls = append(fact.Calls, callee)
					}
				}
				return true
			})
			fact.Calls = dedupFuncs(fact.Calls)
			s.Funcs[obj] = fact
		}
	}
	return s
}

func dedupFuncs(in []*types.Func) []*types.Func {
	seen := make(map[*types.Func]bool, len(in))
	out := in[:0]
	for _, f := range in {
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	return out
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// isRequestType reports whether t is *net/http.Request.
func isRequestType(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "Request"
}

// staticCallee resolves the function or method a call statically invokes
// (plain identifier or selector), or nil for builtins, type conversions,
// and calls through function values.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}
