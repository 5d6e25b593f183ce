package telemetry

import "sync/atomic"

// global is the process-wide registry; nil means telemetry is disabled and
// every handle returned by the package-level accessors is a no-op.
var global atomic.Pointer[Registry]

// Enable installs a fresh global registry and returns it. Callers that
// enable telemetry for a bounded scope (tests) should defer Disable.
func Enable() *Registry {
	r := NewRegistry()
	global.Store(r)
	return r
}

// Disable removes the global registry; instrumented code reverts to the
// nil-handle fast path.
//
//flatvet:testonly tests in other packages restore the disabled default through it; a _test.go file cannot serve them
func Disable() { global.Store(nil) }

// Default returns the global registry, or nil when telemetry is disabled.
func Default() *Registry { return global.Load() }

// C returns the named counter from the global registry (nil when
// disabled).
func C(name string, labels ...string) *Counter { return Default().Counter(name, labels...) }

// G returns the named gauge from the global registry (nil when disabled).
//
//flatvet:testonly flatd's epoch gauge (ROADMAP, causal timeline) is its first production user
func G(name string, labels ...string) *Gauge { return Default().Gauge(name, labels...) }

// H returns the named histogram from the global registry (nil when
// disabled).
func H(name string, labels ...string) *Histogram { return Default().Histogram(name, labels...) }

// StartSpan opens a span on the global registry (nil when disabled).
func StartSpan(name string, attrs ...Attr) *Span { return Default().StartSpan(name, attrs...) }

// StartRootSpan opens an always-root span on the global registry (nil
// when disabled).
func StartRootSpan(name string, attrs ...Attr) *Span { return Default().StartRootSpan(name, attrs...) }
