package load

import "testing"

// TestSummaryServiceFacts computes the per-function summary over the
// real internal/service package and checks the facts ctxflow consumes:
// context parameters and their use, request-path roots, and
// intra-package call edges.
func TestSummaryServiceFacts(t *testing.T) {
	pkgs, err := Load(repoRoot(t), "./internal/service")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	sum := p.Summary()
	if sum == nil || len(sum.Funcs) == 0 {
		t.Fatal("empty summary")
	}
	if p.Summary() != sum {
		t.Error("Summary() not cached: second call returned a different value")
	}

	find := func(name string) *FuncFact {
		t.Helper()
		for obj, f := range sum.Funcs {
			if obj.Name() == name {
				return f
			}
		}
		t.Fatalf("no summary fact for %s", name)
		return nil
	}
	calls := func(f *FuncFact, name string) bool {
		for _, callee := range f.Calls {
			if callee.Name() == name {
				return true
			}
		}
		return false
	}

	// Run(ctx, ln) threads its context into the shutdown path.
	if f := find("Run"); !f.HasCtx || !f.CtxUsed {
		t.Errorf("Run: HasCtx=%v CtxUsed=%v, want both true", f.HasCtx, f.CtxUsed)
	}

	// handleTopology is a request-path root with no context parameter,
	// and reaches writeJSON through one call edge.
	ht := find("handleTopology")
	if !ht.HasRequest || ht.HasCtx {
		t.Errorf("handleTopology: HasRequest=%v HasCtx=%v, want a request root without a ctx parameter", ht.HasRequest, ht.HasCtx)
	}
	if !calls(ht, "writeJSON") {
		t.Errorf("handleTopology calls %v, want writeJSON among them", ht.Calls)
	}

	// Handler calls requestStats once per endpoint, in a loop; each edge
	// is listed once.
	h := find("Handler")
	if !calls(h, "observe") || !calls(h, "requestStats") {
		t.Errorf("Handler calls %v, want observe and requestStats among them", h.Calls)
	}
	seen := map[string]bool{}
	for _, callee := range h.Calls {
		if seen[callee.FullName()] {
			t.Errorf("Handler lists %s twice", callee.FullName())
		}
		seen[callee.FullName()] = true
	}

	// writeJSON is reached, but is not itself a request root.
	if f := find("writeJSON"); f.HasRequest || f.HasCtx {
		t.Errorf("writeJSON: HasRequest=%v HasCtx=%v, want neither", f.HasRequest, f.HasCtx)
	}
}
