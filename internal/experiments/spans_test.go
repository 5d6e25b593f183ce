package experiments

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"flattree/internal/parallel"
	"flattree/internal/telemetry"
)

// converting lists the experiments that convert the emulated testbed,
// each with the conversion spans its root holds.
var converting = []struct {
	name        string
	conversions int
}{
	{"fig10", 7}, {"table3", 3}, {"fig11", 6}, {"rules", 3},
	{"ablation-gradual", 5}, {"ablation-packet", 3}, {"ablation-packet-fct", 2},
}

// spanShape writes a span's subtree as names, nesting and attributes,
// one span a line; starts and durations are left out.
func spanShape(b *strings.Builder, s telemetry.SpanSnapshot, depth int) {
	keys := make([]string, 0, len(s.Attrs))
	for k := range s.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b.WriteString(strings.Repeat("  ", depth) + s.Name)
	for _, k := range keys {
		fmt.Fprintf(b, " %s=%v", k, s.Attrs[k])
	}
	b.WriteByte('\n')
	for _, c := range s.Children {
		spanShape(b, c, depth+1)
	}
}

// countSpans counts the spans named name in a forest.
func countSpans(spans []telemetry.SpanSnapshot, name string) int {
	n := 0
	for _, s := range spans {
		if s.Name == name {
			n++
		}
		n += countSpans(s.Children, name)
	}
	return n
}

// runAllRoots runs the converting experiments through RunAll at the given
// worker count and returns each root span, keyed by name: roots are filed
// in End order, which the schedule decides.
func runAllRoots(t *testing.T, workers int) map[string]telemetry.SpanSnapshot {
	t.Helper()
	parallel.SetDefaultWorkers(workers)
	defer parallel.SetDefaultWorkers(0)
	reg := telemetry.Enable()
	defer telemetry.Disable()
	names := make([]string, len(converting))
	for i, c := range converting {
		names[i] = c.name
	}
	for _, oc := range RunAll(names, Config{Seed: 1, Epsilon: 0.25}) {
		if oc.Err != nil {
			t.Fatalf("workers=%d: %s: %v", workers, oc.Name, oc.Err)
		}
	}
	roots := map[string]telemetry.SpanSnapshot{}
	for _, s := range reg.Snapshot().Spans {
		if _, dup := roots[s.Name]; dup {
			t.Fatalf("workers=%d: two roots named %q", workers, s.Name)
		}
		roots[s.Name] = s
	}
	return roots
}

// TestRunAllSpanTreeWorkerInvariant requires the span tree of a RunAll
// batch to follow the code, not the schedule: at one and at eight
// workers, each experiment root has the same subtree, with its own
// conversion spans as direct children and none nested in another.
func TestRunAllSpanTreeWorkerInvariant(t *testing.T) {
	serial, wide := runAllRoots(t, 1), runAllRoots(t, 8)
	if len(serial) != len(converting) || len(wide) != len(converting) {
		t.Fatalf("roots: %d at workers=1, %d at workers=8, want %d each", len(serial), len(wide), len(converting))
	}
	for _, c := range converting {
		name := "experiment:" + c.name
		var a, b strings.Builder
		spanShape(&a, serial[name], 0)
		spanShape(&b, wide[name], 0)
		if a.String() != b.String() {
			t.Errorf("%s differs between workers=1 and workers=8:\n--- workers=1 ---\n%s--- workers=8 ---\n%s", name, a.String(), b.String())
			continue
		}
		direct := 0
		for _, k := range serial[name].Children {
			if k.Name == "conversion" {
				direct++
			}
		}
		if all := countSpans(serial[name].Children, "conversion"); direct != c.conversions || all != direct {
			t.Errorf("%s holds %d conversion spans, %d of them direct children; want %d, all direct", name, all, direct, c.conversions)
		}
	}
}

// TestRunWithCSVOpensRoot requires the CSV entry to trace like Run: one
// experiment:fig10 root holding the run's seven conversion spans.
func TestRunWithCSVOpensRoot(t *testing.T) {
	reg := telemetry.Enable()
	defer telemetry.Disable()
	if _, err := RunWithCSV("fig10", testConfig(), t.TempDir()); err != nil {
		t.Fatal(err)
	}
	spans := reg.Snapshot().Spans
	if len(spans) != 1 || spans[0].Name != "experiment:fig10" {
		var names []string
		for _, s := range spans {
			names = append(names, s.Name)
		}
		t.Fatalf("roots %q, want one experiment:fig10", names)
	}
	kids := spans[0].Children
	for _, k := range kids {
		if k.Name != "conversion" {
			t.Fatalf("experiment:fig10 child %q, want conversion", k.Name)
		}
	}
	if len(kids) != 7 {
		t.Fatalf("experiment:fig10 holds %d conversion spans, want 7", len(kids))
	}
}
