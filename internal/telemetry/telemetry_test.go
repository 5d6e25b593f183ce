package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestNilHandlesAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatalf("nil counter value = %d", c.Value())
	}
	g := r.Gauge("y")
	g.Set(3)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatalf("nil gauge value = %v", g.Value())
	}
	h := r.Histogram("z")
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("nil histogram count=%d sum=%v", h.Count(), h.Sum())
	}
	sp := r.StartSpan("s")
	sp.SetAttr(Int("k", 1))
	sp.Record("child", 0.5)
	sp.End()
	snap := r.Snapshot()
	if len(snap.Spans) != 0 || len(snap.Counters) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil WritePrometheus: %v", err)
	}
}

func TestGlobalDisabledByDefault(t *testing.T) {
	Disable()
	if Default() != nil {
		t.Fatal("global registry not nil before Enable")
	}
	if C("a") != nil || G("b") != nil || H("c") != nil || StartSpan("d") != nil {
		t.Fatal("disabled accessors returned live handles")
	}
	r := Enable()
	defer Disable()
	if Default() != r {
		t.Fatal("Enable did not install the registry")
	}
	C("a").Inc()
	if r.Counter("a").Value() != 1 {
		t.Fatal("global counter did not record")
	}
}

func TestCountersGaugesHistograms(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conv_total", "mode", "global")
	c.Add(3)
	if got := r.Counter("conv_total", "mode", "global"); got != c {
		t.Fatal("same name+labels returned a different counter")
	}
	if got := r.Counter("conv_total", "mode", "clos"); got == c {
		t.Fatal("different labels shared a counter")
	}
	g := r.Gauge("depth")
	g.Set(2.5)
	g.Add(-0.5)
	if g.Value() != 2 {
		t.Fatalf("gauge = %v, want 2", g.Value())
	}
	h := r.Histogram("lat_seconds")
	for _, v := range []float64{1e-6, 0.002, 0.002, 1.5, 1e9} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-(1e-6+0.004+1.5+1e9)) > 1e-3 {
		t.Fatalf("sum = %v", h.Sum())
	}

	snap := r.Snapshot()
	if snap.Counters[`conv_total{mode="global"}`] != 3 {
		t.Fatalf("snapshot counters: %v", snap.Counters)
	}
	hs := snap.Histograms["lat_seconds"]
	var total int64
	for _, b := range hs.Buckets {
		total += b.Count
	}
	if total != 5 {
		t.Fatalf("bucket counts sum to %d", total)
	}
	if q := hs.Quantile(0.5); q <= 0 || q > 0.01 {
		t.Fatalf("p50 = %v, want a small-latency bound", q)
	}
	if q := hs.Quantile(0.999); !math.IsInf(q, 1) {
		t.Fatalf("p99.9 = %v, want +Inf (1e9 overflows the bounds)", q)
	}
}

func TestSpanNesting(t *testing.T) {
	r := NewRegistry()
	root := r.StartSpan("experiment", Str("id", "table3"))
	conv := r.StartSpan("conversion")
	conv.Record("ocs", 0.160, Int("partitions", 4))
	conv.Record("ramp", 1.2)
	conv.SetAttr(Int("rules", 42))
	conv.End()
	root.End()

	snap := r.Snapshot()
	if len(snap.Spans) != 1 {
		t.Fatalf("want 1 root span, got %d", len(snap.Spans))
	}
	rs := snap.Spans[0]
	if rs.Name != "experiment" || rs.Attrs["id"] != "table3" {
		t.Fatalf("root span: %+v", rs)
	}
	if len(rs.Children) != 1 || rs.Children[0].Name != "conversion" {
		t.Fatalf("conversion not nested under root: %+v", rs.Children)
	}
	cs := rs.Children[0]
	if len(cs.Children) != 2 || cs.Children[0].Name != "ocs" || cs.Children[1].Name != "ramp" {
		t.Fatalf("phase children: %+v", cs.Children)
	}
	if !cs.Children[0].Modeled || cs.Children[0].DurationSeconds != 0.160 {
		t.Fatalf("ocs child: %+v", cs.Children[0])
	}
	if found := rs.Find("ramp"); found == nil || found.DurationSeconds != 1.2 {
		t.Fatalf("Find(ramp) = %+v", found)
	}
	// Attribute JSON round-trip keeps ints readable.
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v", err)
	}
	if len(back.Spans) != 1 {
		t.Fatalf("round-trip lost spans: %+v", back)
	}
}

func TestSpanDoubleEndAndOutOfOrder(t *testing.T) {
	r := NewRegistry()
	a := r.StartSpan("a")
	b := r.StartSpan("b")
	a.End() // out of order: a ends while b is open
	b.End()
	b.End() // double end is a no-op
	snap := r.Snapshot()
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "a" {
		t.Fatalf("roots: %+v", snap.Spans)
	}
	if len(snap.Spans[0].Children) != 1 || snap.Spans[0].Children[0].Name != "b" {
		t.Fatalf("b should remain a's child: %+v", snap.Spans[0])
	}
}

// promLine matches one Prometheus text-exposition sample:
// name{labels} value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (-?[0-9][0-9.eE+-]*|[+-]Inf|NaN)$`)

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("flowsim_events_total").Add(7)
	r.Counter("conv_total", "mode", "global", "kind", "full").Inc()
	r.Gauge("active_flows").Set(3.5)
	h := r.Histogram("fct_seconds")
	h.Observe(0.01)
	h.Observe(250)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	samples := 0
	for _, line := range lines {
		if strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("line does not parse as name{labels} value: %q", line)
		}
		samples++
	}
	if samples == 0 {
		t.Fatal("no sample lines emitted")
	}
	for _, want := range []string{
		"# TYPE flowsim_events_total counter",
		"flowsim_events_total 7",
		`conv_total{kind="full",mode="global"} 1`,
		"active_flows 3.5",
		`fct_seconds_bucket{le="+Inf"} 2`,
		"fct_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
	// Cumulative bucket counts must be non-decreasing.
	prev := int64(-1)
	for _, line := range lines {
		if !strings.HasPrefix(line, "fct_seconds_bucket") {
			continue
		}
		n, err := strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
		if err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		if n < prev {
			t.Fatalf("bucket counts not cumulative at %q", line)
		}
		prev = n
	}
}

// Add shifts the gauge by d.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}
