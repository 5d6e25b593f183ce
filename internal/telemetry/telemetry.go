// Package telemetry is the repository's observability substrate: a
// zero-external-dependency, concurrency-safe registry of counters, gauges,
// and histograms, plus lightweight nested spans that trace a run (one span
// per conversion phase, one root span per experiment). Exporters render a
// registry as Prometheus text exposition format or as a structured JSON
// snapshot (see export.go).
//
// Telemetry is off by default: the global registry is nil until Enable is
// called, and every handle obtained from a nil registry is itself nil.
// All metric and span methods are nil-receiver-safe no-ops, so an
// instrumented hot path costs a single predictable nil check when
// telemetry is off (BenchmarkCounterDisabled) and one atomic add when it
// is on (BenchmarkCounterEnabled). Handles should be fetched once per run
// or per call — not once per inner-loop iteration — because handle lookup
// takes the registry lock.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The nil Counter is a valid
// no-op, which is how disabled telemetry costs nothing on hot paths.
type Counter struct {
	name   string
	labels string
	v      atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down, stored as float64 bits.
type Gauge struct {
	name   string
	labels string
	bits   atomic.Uint64
}

// Set replaces the gauge value.
//
//flatvet:testonly flatd's epoch gauge (ROADMAP, causal timeline) is its first production user
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current gauge value (0 for a nil Gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates observations into fixed log-scale buckets — wide
// enough (1 µs to ~3000 s with default bounds) to hold both simulated FCTs
// and wall-clock solver times without configuration.
type Histogram struct {
	name    string
	labels  string
	bounds  []float64 // ascending upper bounds; implicit +Inf bucket after
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// DefaultBounds returns the default log-scale bucket upper bounds: half
// decades from 1e-6 to 1e3 (1 µs … ~17 min), 19 bounds plus +Inf overflow.
func DefaultBounds() []float64 {
	bounds := make([]float64, 0, 19)
	for i := 0; i <= 18; i++ {
		bounds = append(bounds, math.Pow(10, -6+0.5*float64(i)))
	}
	return bounds
}

// Observe adds one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v; len(bounds) = +Inf
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations (0 for a nil Histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 for a nil Histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Registry holds a run's metrics and finished spans. The nil Registry is
// valid: every accessor returns a nil (no-op) handle.
type Registry struct {
	start time.Time

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	// roots holds the finished root spans in End order, starting at
	// rootHead. Under a rootLimit it is a ring of at most rootLimit spans,
	// and rootHead moves only once the ring is full; otherwise rootHead
	// is 0.
	roots    []*Span
	rootHead int
	// rootLimit bounds the finished-root-span history (0 = unbounded);
	// droppedRoots counts spans the bound discarded.
	rootLimit    int
	droppedRoots int64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		start:    time.Now(),
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// SetRootSpanLimit bounds the finished-root-span history to the most
// recent n spans; 0 restores the unbounded default. Batch runs keep every
// span, but a resident service (flatd) emits one root span per request
// and would grow the registry without limit — the bound turns the history
// into a ring of the latest n requests. Spans the bound discards are
// counted and surfaced in snapshots as the synthetic counter
// telemetry_root_spans_dropped_total.
func (r *Registry) SetRootSpanLimit(n int) {
	if r == nil {
		return
	}
	if n < 0 {
		n = 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	keep := len(r.roots)
	if n > 0 && keep > n {
		keep = n
	}
	// Unroll the ring into End order, keeping the newest spans.
	kept := make([]*Span, keep)
	for i := range kept {
		kept[i] = r.roots[(r.rootHead+len(r.roots)-keep+i)%len(r.roots)]
	}
	r.droppedRoots += int64(len(r.roots) - keep)
	r.roots, r.rootHead, r.rootLimit = kept, 0, n
}

// fileRootLocked adds a finished root span to the history. Once a bounded
// history is full it overwrites the oldest span in place: O(1) and
// allocation-free. Callers hold r.mu.
func (r *Registry) fileRootLocked(s *Span) {
	if r.rootLimit > 0 && len(r.roots) == r.rootLimit {
		r.roots[r.rootHead] = s
		r.rootHead = (r.rootHead + 1) % r.rootLimit
		r.droppedRoots++
		return
	}
	r.roots = append(r.roots, s)
}

// labelString renders alternating key, value pairs as a deterministic
// Prometheus label block ({k="v",...}); empty for no labels. An odd
// trailing key gets an empty value rather than being dropped silently.
func labelString(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, (len(labels)+1)/2)
	for i := 0; i < len(labels); i += 2 {
		v := ""
		if i+1 < len(labels) {
			v = labels[i+1]
		}
		pairs = append(pairs, kv{labels[i], v})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	out := "{"
	for i, p := range pairs {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprintf("%s=%q", p.k, p.v)
	}
	return out + "}"
}

// Counter returns (creating on first use) the named counter. labels are
// alternating key, value pairs.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	ls := labelString(labels)
	key := name + ls
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[key]; ok {
		return c
	}
	c := &Counter{name: name, labels: ls}
	r.counters[key] = c
	return c
}

// Gauge returns (creating on first use) the named gauge.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	ls := labelString(labels)
	key := name + ls
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[key]; ok {
		return g
	}
	g := &Gauge{name: name, labels: ls}
	r.gauges[key] = g
	return g
}

// Histogram returns (creating on first use) the named histogram with the
// default log-scale bounds.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	return r.HistogramBounds(name, nil, labels...)
}

// HistogramBounds returns (creating on first use) the named histogram.
// bounds must be ascending; nil selects DefaultBounds. Bounds are fixed by
// the first creation; later calls return the existing histogram.
func (r *Registry) HistogramBounds(name string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	ls := labelString(labels)
	key := name + ls
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[key]; ok {
		return h
	}
	if bounds == nil {
		bounds = DefaultBounds()
	}
	h := &Histogram{
		name: name, labels: ls,
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
	r.hists[key] = h
	return h
}
