package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

// The export edge cases: quantiles over empty and overflow-only
// histograms, label escaping in the Prometheus text format, and JSON
// snapshot stability while spans are still ending on other goroutines.

func TestQuantileEmptyHistogram(t *testing.T) {
	var h HistogramSnapshot
	for _, q := range []float64{0.01, 0.5, 0.99} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty histogram Quantile(%v) = %v, want 0", q, got)
		}
	}
}

func TestQuantileSingleObservation(t *testing.T) {
	h := HistogramSnapshot{Count: 1, Sum: 3, Buckets: []Bucket{{Le: 10, Count: 1}}}
	for _, q := range []float64{0.001, 0.5, 0.999} {
		if got := h.Quantile(q); got != 10 {
			t.Fatalf("Quantile(%v) = %v, want 10", q, got)
		}
	}
}

func TestQuantileOverflowBucket(t *testing.T) {
	// All mass beyond the largest bound: the estimate must be +Inf, not
	// a silent finite bound.
	h := HistogramSnapshot{Count: 4, Buckets: []Bucket{{Le: math.Inf(1), Count: 4}}}
	if got := h.Quantile(0.5); !math.IsInf(got, 1) {
		t.Fatalf("overflow-only Quantile(0.5) = %v, want +Inf", got)
	}
	// Mass split across a finite bucket and the overflow bucket.
	h = HistogramSnapshot{Count: 4, Buckets: []Bucket{{Le: 1, Count: 2}, {Le: math.Inf(1), Count: 2}}}
	if got := h.Quantile(0.5); got != 1 {
		t.Fatalf("Quantile(0.5) = %v, want 1", got)
	}
	if got := h.Quantile(0.99); !math.IsInf(got, 1) {
		t.Fatalf("Quantile(0.99) = %v, want +Inf", got)
	}
}

func TestWithLabelEscaping(t *testing.T) {
	// No existing labels: a fresh block is opened.
	if got := withLabel("", "le", "+Inf"); got != `{le="+Inf"}` {
		t.Fatalf("withLabel on empty block = %q", got)
	}
	// Merging into an existing block keeps prior labels intact.
	base := labelString([]string{"mode", "clos"})
	if got := withLabel(base, "le", "0.5"); got != `{mode="clos",le="0.5"}` {
		t.Fatalf("withLabel merge = %q", got)
	}
	// Values with quotes, backslashes, and newlines must stay escaped so
	// the exposition format remains one sample per line.
	for value, want := range map[string]string{
		`say "hi"`: `{le="say \"hi\""}`,
		`a\b`:      `{le="a\\b"}`,
		"a\nb":     `{le="a\nb"}`,
	} {
		if got := withLabel("", "le", value); got != want {
			t.Fatalf("withLabel(%q) = %q, want %q", value, got, want)
		}
		if strings.Count(withLabel("", "le", value), "\n") != 0 {
			t.Fatalf("withLabel(%q) contains a raw newline", value)
		}
	}
}

func TestPrometheusLabeledHistogramEscapes(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramBounds("escape_seconds", []float64{1}, "note", "line1\nline\"2\"")
	h.Observe(0.5)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if line == "" {
			t.Fatalf("empty exposition line in:\n%s", out)
		}
	}
	if !strings.Contains(out, `escape_seconds_bucket{note="line1\nline\"2\"",le="1"} 1`) {
		t.Fatalf("escaped label block missing:\n%s", out)
	}
	if !strings.Contains(out, `escape_seconds_bucket{note="line1\nline\"2\"",le="+Inf"} 1`) {
		t.Fatalf("overflow bucket line missing:\n%s", out)
	}
}

// TestWriteJSONUnderConcurrentSpanEnds pins snapshot stability: taking
// and encoding snapshots while other goroutines are still starting and
// ending spans must neither race (covered by -race in CI) nor produce
// invalid JSON.
func TestWriteJSONUnderConcurrentSpanEnds(t *testing.T) {
	r := NewRegistry()
	const spans = 200
	var wg sync.WaitGroup
	start := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < spans; i++ {
			sp := r.StartSpan("worker")
			sp.Record("phase", 0.001)
			sp.End()
		}
	}()
	close(start)
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON during span ends: %v", err)
		}
		var snap Snapshot
		if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
			t.Fatalf("snapshot %d is not valid JSON: %v", i, err)
		}
		// Only finished spans export, and each finished root is complete
		// (its modeled child came with it).
		for _, sp := range snap.Spans {
			if sp.Name != "worker" {
				t.Fatalf("unexpected span %q", sp.Name)
			}
			if len(sp.Children) != 1 || sp.Children[0].Name != "phase" {
				t.Fatalf("half-built span exported: %+v", sp)
			}
		}
	}
	wg.Wait()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Spans) != spans {
		t.Fatalf("final snapshot has %d spans, want %d", len(snap.Spans), spans)
	}
}

// Quantile estimates the q-quantile (0 < q < 1) from the bucket counts by
// attributing each bucket's mass to its upper bound — a conservative
// log-scale estimate good to one half-decade.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for _, b := range h.Buckets {
		seen += b.Count
		if seen >= rank {
			return b.Le
		}
	}
	return math.Inf(1)
}

// Find returns the first child (depth-first, pre-order) with the given
// name, or nil.
func (s *SpanSnapshot) Find(name string) *SpanSnapshot {
	for i := range s.Children {
		c := &s.Children[i]
		if c.Name == name {
			return c
		}
		if found := c.Find(name); found != nil {
			return found
		}
	}
	return nil
}
