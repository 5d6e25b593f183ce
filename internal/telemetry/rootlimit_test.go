package telemetry

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

func endRoots(r *Registry, n int) {
	for i := 0; i < n; i++ {
		r.StartRootSpan("req").End()
	}
}

func TestSetRootSpanLimitBoundsHistory(t *testing.T) {
	r := NewRegistry()
	r.SetRootSpanLimit(2)
	endRoots(r, 5)
	snap := r.Snapshot()
	if len(snap.Spans) != 2 {
		t.Fatalf("kept %d root spans, want 2", len(snap.Spans))
	}
	if got := snap.Counters["telemetry_root_spans_dropped_total"]; got != 3 {
		t.Fatalf("dropped counter = %d, want 3", got)
	}
}

func TestSetRootSpanLimitAppliesRetroactively(t *testing.T) {
	r := NewRegistry()
	endRoots(r, 4)
	r.SetRootSpanLimit(1)
	snap := r.Snapshot()
	if len(snap.Spans) != 1 {
		t.Fatalf("kept %d root spans after retroactive limit, want 1", len(snap.Spans))
	}
	if got := snap.Counters["telemetry_root_spans_dropped_total"]; got != 3 {
		t.Fatalf("dropped counter = %d, want 3", got)
	}
}

func TestSetRootSpanLimitZeroIsUnbounded(t *testing.T) {
	r := NewRegistry()
	r.SetRootSpanLimit(2)
	r.SetRootSpanLimit(0)
	endRoots(r, 5)
	if got := len(r.Snapshot().Spans); got != 5 {
		t.Fatalf("kept %d root spans with limit 0, want all 5", got)
	}
}

func TestSetRootSpanLimitNilRegistry(t *testing.T) {
	var r *Registry
	r.SetRootSpanLimit(3) // must not panic
}

func rootNames(r *Registry) []string {
	var names []string
	for _, sp := range r.Snapshot().Spans {
		names = append(names, sp.Name)
	}
	return names
}

// TestRootSpanRingKeepsEndOrder pins the snapshot order of a bounded
// history after it wraps, after a smaller limit trims the wrapped ring,
// and after the limit is lifted again.
func TestRootSpanRingKeepsEndOrder(t *testing.T) {
	r := NewRegistry()
	r.SetRootSpanLimit(3)
	for i := 0; i < 7; i++ {
		r.StartRootSpan(fmt.Sprintf("r%d", i)).End()
	}
	if got, want := strings.Join(rootNames(r), " "), "r4 r5 r6"; got != want {
		t.Fatalf("wrapped history = %s, want %s", got, want)
	}
	r.SetRootSpanLimit(2)
	if got, want := strings.Join(rootNames(r), " "), "r5 r6"; got != want {
		t.Fatalf("trimmed history = %s, want %s", got, want)
	}
	r.SetRootSpanLimit(0)
	r.StartRootSpan("r7").End()
	if got, want := strings.Join(rootNames(r), " "), "r5 r6 r7"; got != want {
		t.Fatalf("unbounded history = %s, want %s", got, want)
	}
	if got := r.Snapshot().Counters["telemetry_root_spans_dropped_total"]; got != 5 {
		t.Fatalf("dropped counter = %d, want 5", got)
	}
}

// rootSpanBytes returns the heap bytes one StartRootSpan+End allocates on
// a registry whose history of limit spans is already full.
func rootSpanBytes(limit int) float64 {
	r := NewRegistry()
	r.SetRootSpanLimit(limit)
	endRoots(r, 2*limit)
	const n = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	endRoots(r, n)
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / n
}

// TestRootSpanLimitCostIsConstant holds a full bounded history to O(1)
// work per span: what one request span allocates must not grow with the
// limit. Copying the history on every End cost about 5 KB per span at a
// limit of 512, against about 0.2 KB at 8.
func TestRootSpanLimitCostIsConstant(t *testing.T) {
	small, large := rootSpanBytes(8), rootSpanBytes(512)
	if large > small+64 {
		t.Fatalf("StartRootSpan+End allocates %.0f B/op at limit 512, %.0f B/op at limit 8; want within 64 B", large, small)
	}
}
