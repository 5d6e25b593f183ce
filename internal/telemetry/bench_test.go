package telemetry

import "testing"

// BenchmarkCounterDisabled measures the instrumented-hot-path cost with
// telemetry off: a nil handle's Add must stay at or under ~2 ns/op (a
// single predictable branch), so simulators can keep their counters
// unconditionally.
func BenchmarkCounterDisabled(b *testing.B) {
	Disable()
	c := C("bench_disabled_total") // nil: telemetry is off
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

// BenchmarkCounterEnabled measures the enabled fast path: one atomic add.
func BenchmarkCounterEnabled(b *testing.B) {
	Enable()
	defer Disable()
	c := C("bench_enabled_total")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
	if c.Value() != int64(b.N) {
		b.Fatalf("count = %d, want %d", c.Value(), b.N)
	}
}

// BenchmarkCounterLookupEnabled measures the by-name path (registry lock +
// map lookup) used once per solver call rather than per event.
func BenchmarkCounterLookupEnabled(b *testing.B) {
	Enable()
	defer Disable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		C("bench_lookup_total").Add(1)
	}
}

// BenchmarkSpan measures a full cycle with telemetry on: a root and one
// timed child started, the child given an attribute, and both ended. The
// registry is recycled periodically so the benchmark measures span cost,
// not the memory of b.N retained roots.
func BenchmarkSpan(b *testing.B) {
	r := NewRegistry()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%100000 == 99999 {
			b.StopTimer()
			r = NewRegistry()
			b.StartTimer()
		}
		sp := r.StartRootSpan("bench")
		ch := sp.Child("phase")
		ch.SetAttr(Int("i", i))
		ch.End()
		sp.End()
	}
}

// BenchmarkSpanDisabled measures the same cycle with telemetry off: a
// root from the nil global registry and its child are nil, so each call
// is one branch. No attribute is set, because boxing a loop variable into
// one would time an allocation the caller made, not the span.
func BenchmarkSpanDisabled(b *testing.B) {
	Disable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := StartRootSpan("bench")
		sp.Child("phase").End()
		sp.End()
	}
}

// BenchmarkHistogramEnabled measures one log-bucket observation.
func BenchmarkHistogramEnabled(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_seconds")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i&1023) * 1e-4)
	}
}

// BenchmarkRootSpanBounded measures one request span on a resident
// daemon's registry: a root span started and ended with the 512-span
// history already full, so each End overwrites the oldest span.
func BenchmarkRootSpanBounded(b *testing.B) {
	r := NewRegistry()
	r.SetRootSpanLimit(512)
	for i := 0; i < 512; i++ {
		r.StartRootSpan("req").End()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.StartRootSpan("req").End()
	}
}
