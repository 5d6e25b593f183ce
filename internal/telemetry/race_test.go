package telemetry

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestConcurrentRegistry hammers one registry from many goroutines —
// counters, gauges, histograms, spans, and snapshots all at once — so
// `go test -race ./internal/telemetry` exercises every lock and atomic.
func TestConcurrentRegistry(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const iters = 2000

	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			// Shared and per-goroutine handles mix lookup and fast paths.
			shared := r.Counter("shared_total")
			own := r.Counter("per_goroutine_total", "g", fmt.Sprint(gi))
			gauge := r.Gauge("level")
			hist := r.Histogram("obs_seconds")
			for i := 0; i < iters; i++ {
				shared.Inc()
				own.Inc()
				gauge.Add(1)
				hist.Observe(float64(i%100) * 1e-3)
				if i%100 == 0 {
					sp := r.StartRootSpan("work", Int("g", gi))
					sp.Child("phase", Int("i", i)).End()
					sp.End()
				}
				if i%500 == 0 {
					_ = r.Snapshot()
				}
			}
		}(gi)
	}
	wg.Wait()

	if got := r.Counter("shared_total").Value(); got != goroutines*iters {
		t.Fatalf("shared counter = %d, want %d", got, goroutines*iters)
	}
	if got := r.Gauge("level").Value(); got != goroutines*iters {
		t.Fatalf("gauge = %v, want %d", got, goroutines*iters)
	}
	if got := r.Histogram("obs_seconds").Count(); got != goroutines*iters {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*iters)
	}
	// Parents are explicit, so concurrent roots never nest: every work
	// span is a root holding exactly its own phase.
	snap := r.Snapshot()
	if got, want := len(snap.Spans), goroutines*(iters/100); got != want {
		t.Fatalf("root spans = %d, want %d", got, want)
	}
	for _, s := range snap.Spans {
		if s.Name != "work" || len(s.Children) != 1 || s.Children[0].Name != "phase" {
			t.Fatalf("root %q has children %+v, want one phase", s.Name, s.Children)
		}
	}
}

// stalledWriter blocks its first Write until release is closed, like a
// client that stops reading a /metrics response.
type stalledWriter struct {
	once             sync.Once
	entered, release chan struct{}
}

func (w *stalledWriter) Write(p []byte) (int, error) {
	w.once.Do(func() {
		close(w.entered)
		<-w.release
	})
	return len(p), nil
}

// TestScrapeDoesNotBlockSpans pins that WritePrometheus writes without
// the registry lock: while a scrape is stuck in its first Write, another
// goroutine still starts and ends a root span on the same registry.
func TestScrapeDoesNotBlockSpans(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_total").Inc()
	r.Histogram("request_seconds").Observe(0.01)
	w := &stalledWriter{entered: make(chan struct{}), release: make(chan struct{})}
	scraped := make(chan error, 1)
	go func() { scraped <- r.WritePrometheus(w) }()
	<-w.entered

	spanDone := make(chan struct{})
	go func() {
		r.StartRootSpan("http").End()
		close(spanDone)
	}()
	var blocked bool
	select {
	case <-spanDone:
	case <-time.After(5 * time.Second):
		blocked = true
	}
	close(w.release)
	if err := <-scraped; err != nil {
		t.Fatal(err)
	}
	<-spanDone
	if blocked {
		t.Fatal("a root span's start and end waited for a stalled scrape to finish writing")
	}
}
