package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"time"
)

// Snapshot is a point-in-time, export-ready copy of a registry: plain maps
// and slices, safe to marshal or inspect after the run continues.
type Snapshot struct {
	TakenAt    time.Time                    `json:"taken_at"`
	UptimeSecs float64                      `json:"uptime_seconds"`
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Spans      []SpanSnapshot               `json:"spans,omitempty"`
}

// HistogramSnapshot summarizes one histogram.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     float64  `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"` // non-empty buckets only
}

// Bucket is one non-cumulative histogram bucket; Le is +Inf for the
// overflow bucket.
type Bucket struct {
	Le    float64 `json:"le"`
	Count int64   `json:"count"`
}

// SpanSnapshot is one span of the trace tree.
type SpanSnapshot struct {
	Name string `json:"name"`
	// Start is seconds since the registry was created.
	Start float64 `json:"start"`
	// DurationSeconds is wall time, or the modeled duration when Modeled.
	DurationSeconds float64                `json:"duration_seconds"`
	Modeled         bool                   `json:"modeled,omitempty"`
	Attrs           map[string]interface{} `json:"attrs,omitempty"`
	Children        []SpanSnapshot         `json:"children,omitempty"`
}

// Snapshot copies the registry's current state. Only finished spans are
// exported; open spans (an experiment still running on another goroutine)
// are omitted. A nil registry yields an empty snapshot.
func (r *Registry) Snapshot() *Snapshot {
	snap := &Snapshot{TakenAt: time.Now()}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	snap.UptimeSecs = time.Since(r.start).Seconds()
	if len(r.counters) > 0 || r.droppedRoots > 0 {
		snap.Counters = make(map[string]int64, len(r.counters)+1)
		for key, c := range r.counters {
			snap.Counters[key] = c.Value()
		}
		if r.droppedRoots > 0 {
			snap.Counters["telemetry_root_spans_dropped_total"] = r.droppedRoots
		}
	}
	if len(r.gauges) > 0 {
		snap.Gauges = make(map[string]float64, len(r.gauges))
		for key, g := range r.gauges {
			snap.Gauges[key] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		snap.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for key, h := range r.hists {
			hs := HistogramSnapshot{Count: h.Count(), Sum: h.Sum()}
			for i := range h.buckets {
				n := h.buckets[i].Load()
				if n == 0 {
					continue
				}
				le := math.Inf(1)
				if i < len(h.bounds) {
					le = h.bounds[i]
				}
				hs.Buckets = append(hs.Buckets, Bucket{Le: le, Count: n})
			}
			snap.Histograms[key] = hs
		}
	}
	for i := range r.roots {
		snap.Spans = append(snap.Spans, snapshotSpan(r.roots[(r.rootHead+i)%len(r.roots)]))
	}
	return snap
}

func snapshotSpan(s *Span) SpanSnapshot {
	out := SpanSnapshot{
		Name: s.name, Start: s.offset,
		DurationSeconds: s.dur, Modeled: s.model,
	}
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]interface{}, len(s.attrs))
		for _, a := range s.attrs {
			out.Attrs[a.Key] = a.Value
		}
	}
	for _, k := range s.kids {
		out.Children = append(out.Children, snapshotSpan(k))
	}
	return out
}

// WriteJSON renders the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteJSON snapshots the registry and renders it as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error { return r.Snapshot().WriteJSON(w) }

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): "# TYPE" comments followed by
// "name{labels} value" sample lines, deterministically ordered. It holds
// the registry lock only to collect the metrics, not while it formats and
// writes them: a slow reader must not stall every span start and end.
// Metrics are never removed and their values are atomic, so the collected
// handles stay valid after the lock is released.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counters, gauges, hists := sortedValues(r.counters), sortedValues(r.gauges), sortedValues(r.hists)
	r.mu.Unlock()

	typed := map[string]bool{}
	writeType := func(name, kind string) error {
		if typed[name] {
			return nil
		}
		typed[name] = true
		_, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
		return err
	}

	for _, c := range counters {
		if err := writeType(c.name, "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s%s %d\n", c.name, c.labels, c.Value()); err != nil {
			return err
		}
	}
	for _, g := range gauges {
		if err := writeType(g.name, "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s%s %s\n", g.name, g.labels, formatFloat(g.Value())); err != nil {
			return err
		}
	}
	for _, h := range hists {
		if err := writeType(h.name, "histogram"); err != nil {
			return err
		}
		var cum int64
		for i := range h.buckets {
			cum += h.buckets[i].Load()
			le := "+Inf"
			if i < len(h.bounds) {
				le = formatFloat(h.bounds[i])
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				h.name, withLabel(h.labels, "le", le), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", h.name, h.labels, formatFloat(h.Sum())); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count%s %d\n", h.name, h.labels, h.Count()); err != nil {
			return err
		}
	}
	return nil
}

// sortedValues returns a map's values in ascending key order.
func sortedValues[V any](m map[string]V) []V {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]V, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}

// withLabel merges one extra label into a rendered label block.
func withLabel(labels, key, value string) string {
	extra := fmt.Sprintf("%s=%q", key, value)
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// formatFloat renders a float the way Prometheus expects (shortest
// round-trip form; +Inf/-Inf/NaN spelled out).
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
