// Package service is the resident flat-tree control plane behind cmd/flatd:
// a long-lived HTTP/JSON daemon that owns a live topology, an incremental
// route table, and the churn pricing machinery, and answers online
// questions against that state — the "system serving millions of users"
// surface the batch CLIs (flatsim/benchtables) cannot provide.
//
// Endpoints:
//
//	GET  /healthz        liveness: status, uptime, applied link events
//	GET  /topology       fingerprint, pod modes, failed links, table health
//	GET  /routes         k-shortest server-to-server lookup (?src=&dst=)
//	POST /quote/convert  what-if conversion quote, priced on a copy
//	POST /events/link    fail/repair a link through the incremental table
//	GET  /metrics        Prometheus text exposition of the telemetry registry
//
// The daemon serves immutable epochs. Each applied link event publishes
// the next epoch (event count, frozen route table, failed links) through
// an atomic pointer, so a read loads one epoch and takes no lock; link
// events are serialized among themselves. The network is never converted:
// a quote converts a clone (control.QuotePodModes). Every request runs
// under a deadline (Config.RequestTimeout) and is logged as a bounded
// telemetry root span; Run drains in-flight requests on context
// cancellation before returning.
package service

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"flattree/internal/control"
	"flattree/internal/core"
	"flattree/internal/routing"
	"flattree/internal/telemetry"
	"flattree/internal/topo"
)

// Config assembles a Server. Network is required; everything else has a
// serviceable default.
type Config struct {
	// Network is the flat-tree network the daemon owns. The server takes
	// ownership: callers must not mutate it after New.
	Network *core.Network
	// K is the number of k-shortest paths per ingress pair in the live
	// route table (default 8, matching the churn experiment).
	K int
	// Detection is the failure-detection latency priced into every link
	// event's reaction time, in seconds (default 0.05); finite and
	// non-negative.
	Detection float64
	// Delay prices rule updates for quotes and link events. The zero value
	// selects control.TestbedDelayModel with parallel switch configuration.
	// Every duration in it must be finite and non-negative.
	Delay control.DelayModel
	// Registry receives request spans, counters, and /metrics output; nil
	// uses the process-global registry (which may be disabled).
	Registry *telemetry.Registry
	// RequestTimeout bounds each request's handling time (default 10s);
	// non-negative.
	RequestTimeout time.Duration
	// DrainTimeout bounds how long Run waits for in-flight requests after
	// shutdown begins (default 15s); non-negative.
	DrainTimeout time.Duration
}

// Server is the daemon's state. All of it but the route table is fixed
// at New; the route table changes only by link events, each of which
// publishes the next epoch for readers.
type Server struct {
	cfg   Config
	reg   *telemetry.Registry
	start time.Time
	// nw holds the per-pod modes, topo their healthy realization and fp
	// its content fingerprint.
	nw   *core.Network
	topo *topo.Topology
	fp   string

	// mu serializes link events, the only users of inc: the live route
	// table and its failure record, mutated in place.
	mu  sync.Mutex
	inc *routing.IncrementalTable
	// cur is the epoch of the last applied link event.
	cur atomic.Pointer[epoch]

	// preHandle, when set (tests), runs inside the handler chain before
	// dispatch — the hook the shutdown drain test blocks on.
	preHandle func(*http.Request)
}

// epoch is what readers see after some number of applied link events.
// It is built once per event and never modified.
type epoch struct {
	events   int64
	table    *routing.Table
	failed   []failedLink
	degraded int
}

// nextEpoch freezes inc's state as the epoch after events link events.
func (s *Server) nextEpoch(events int64) *epoch {
	masked := s.inc.Masked()
	failed := make([]failedLink, len(masked))
	for i, id := range masked {
		l := s.topo.G.Link(id)
		failed[i] = failedLink{Link: id, A: min(l.A, l.B), B: max(l.A, l.B)}
	}
	return &epoch{events: events, table: s.inc.Frozen(), failed: failed, degraded: s.inc.DegradedPairs()}
}

// New realizes the network, builds the live route table, and returns a
// ready-to-serve daemon.
func New(cfg Config) (*Server, error) {
	if cfg.Network == nil {
		return nil, errors.New("service: Config.Network is required")
	}
	if cfg.K == 0 {
		cfg.K = 8
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("service: k = %d", cfg.K)
	}
	if field, v, bad := control.BadDuration(cfg.Detection, cfg.Delay); bad {
		note := ""
		if field == "Detection" {
			note = "; zero uses the default"
		}
		return nil, fmt.Errorf("service: Config.%s %v (want finite >= 0%s)", field, v, note)
	}
	if cfg.Detection == 0 {
		cfg.Detection = 0.05
	}
	if cfg.Delay == (control.DelayModel{}) {
		cfg.Delay = control.TestbedDelayModel()
		cfg.Delay.Parallel = true
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.Default()
	}
	if cfg.RequestTimeout < 0 {
		return nil, fmt.Errorf("service: Config.RequestTimeout %v (want >= 0; zero uses the default)", cfg.RequestTimeout)
	}
	if cfg.DrainTimeout < 0 {
		return nil, fmt.Errorf("service: Config.DrainTimeout %v (want >= 0; zero uses the default)", cfg.DrainTimeout)
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = 15 * time.Second
	}
	t := cfg.Network.Realize().Topo
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("service: realized topology invalid: %w", err)
	}
	table := routing.BuildKShortestCached(t, cfg.K)
	s := &Server{
		cfg:   cfg,
		reg:   cfg.Registry,
		start: time.Now(),
		nw:    cfg.Network,
		topo:  t,
		fp:    t.Fingerprint(),
		inc:   routing.NewIncremental(table, nil),
	}
	s.cur.Store(s.nextEpoch(0))
	return s, nil
}

// Run serves on the established listener until ctx is cancelled, then
// shuts down gracefully: the listener closes immediately, in-flight
// requests get up to Config.DrainTimeout to complete, and Run returns
// only once they have drained (or the drain deadline expired). A non-nil
// return reports either a serve failure or an incomplete drain.
func (s *Server) Run(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		//flatvet:ctx the drain deadline must outlive the cancelled serve context
		drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		defer cancel()
		err := hs.Shutdown(drainCtx)
		if serveErr := <-errc; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
			return serveErr
		}
		if err != nil {
			return fmt.Errorf("service: drain incomplete: %w", err)
		}
		return nil
	}
}

// Handler returns the daemon's full handler chain: request spans and
// counters outermost, then the per-request deadline, then the routing mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	stats := map[string]*requestStats{}
	for _, ep := range []struct {
		path   string
		handle http.HandlerFunc
	}{
		{"/healthz", s.handleHealthz},
		{"/topology", s.handleTopology},
		{"/routes", s.handleRoutes},
		{"/quote/convert", s.handleQuoteConvert},
		{"/events/link", s.handleLinkEvent},
		{"/metrics", s.handleMetrics},
	} {
		mux.HandleFunc(ep.path, ep.handle)
		stats[ep.path] = s.requestStats(ep.path)
	}

	var inner http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.preHandle != nil {
			s.preHandle(r)
		}
		mux.ServeHTTP(w, r)
	})
	timed := http.TimeoutHandler(inner, s.cfg.RequestTimeout, `{"error":"request timed out"}`)
	return s.observe(timed, stats)
}

// otherPath is the path label of every request for an unregistered
// path, so a client probing arbitrary URLs cannot grow the registry.
const otherPath = "other"

// requestStats are one endpoint's request metrics, resolved once when
// Handler builds the chain.
type requestStats struct {
	requests, errors *telemetry.Counter
	seconds          *telemetry.Histogram
}

func (s *Server) requestStats(path string) *requestStats {
	return &requestStats{
		requests: s.reg.Counter("flatd_requests_total", "path", path),
		errors:   s.reg.Counter("flatd_request_errors_total", "path", path),
		seconds:  s.reg.Histogram("flatd_request_seconds", "path", path),
	}
}

// observe wraps the handler chain in bounded request logging: one root
// span per request (the registry's root-span limit keeps a resident
// daemon's history finite) plus counters and a latency histogram
// labeled by endpoint, with every unregistered path under otherPath.
func (s *Server) observe(next http.Handler, stats map[string]*requestStats) http.Handler {
	other := s.requestStats(otherPath)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sp := s.reg.StartRootSpan("http", telemetry.Str("method", r.Method), telemetry.Str("path", r.URL.Path))
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		sp.SetAttr(telemetry.Int("status", sw.status))
		sp.End()
		st := stats[r.URL.Path]
		if st == nil {
			st = other
		}
		st.requests.Inc()
		if sw.status >= 400 {
			st.errors.Inc()
		}
		st.seconds.Observe(time.Since(start).Seconds())
	})
}

// statusWriter captures the response status for the request span.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}
