package telemetry

import "time"

// Attr is one span attribute (rule counts, modes, iteration totals).
type Attr struct {
	Key   string
	Value interface{}
}

// Int builds an integer attribute.
func Int(key string, v int) Attr { return Attr{Key: key, Value: v} }

// Float builds a float attribute.
func Float(key string, v float64) Attr { return Attr{Key: key, Value: v} }

// Str builds a string attribute.
func Str(key, v string) Attr { return Attr{Key: key, Value: v} }

// Span is one timed region of a run. Spans nest: a span started while
// another is open becomes its child, so a run forms a trace tree (an
// experiment root span over conversion spans over phase spans). Parenting
// uses a registry-wide stack of open spans — precise for the single
// orchestration goroutine that drives runs, best-effort when spans are
// started from several goroutines at once (use Record for children built
// concurrently or with modeled durations).
//
// The nil Span is a valid no-op, so instrumented code never checks whether
// telemetry is enabled.
type Span struct {
	reg    *Registry
	parent *Span
	name   string
	start  time.Time
	offset float64 // seconds since registry creation
	dur    float64 // seconds; wall time at End, or modeled (Record)
	model  bool    // duration is modeled, not measured
	attrs  []Attr
	kids   []*Span
	ended  bool
}

// StartSpan opens a span as a child of the innermost open span (or as a
// root). It returns nil — a no-op span — on a nil registry.
func (r *Registry) StartSpan(name string, attrs ...Attr) *Span {
	if r == nil {
		return nil
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	sp := &Span{reg: r, name: name, start: now, offset: now.Sub(r.start).Seconds(), attrs: attrs}
	if n := len(r.stack); n > 0 {
		sp.parent = r.stack[n-1]
		sp.parent.kids = append(sp.parent.kids, sp)
	}
	r.stack = append(r.stack, sp)
	return sp
}

// StartRootSpan opens a span that is always a root, regardless of the
// open-span stack — for top-level operations that may run concurrently
// (parallel experiment batches) and whose spans must not nest under one
// another. The span still joins the stack so spans started below it
// attach as children; with several roots open at once that attribution
// is best-effort, like all cross-goroutine parenting here.
func (r *Registry) StartRootSpan(name string, attrs ...Attr) *Span {
	if r == nil {
		return nil
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	sp := &Span{reg: r, name: name, start: now, offset: now.Sub(r.start).Seconds(), attrs: attrs}
	r.stack = append(r.stack, sp)
	return sp
}

// SetAttr appends attributes to the span.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.reg.mu.Lock()
	defer s.reg.mu.Unlock()
	s.attrs = append(s.attrs, attrs...)
}

// Record attaches an already-finished child span with an explicit duration
// in seconds — how modeled phases (OCS reconfiguration, per-rule latency,
// transport ramp) enter a trace whose wall clock did not actually elapse.
func (s *Span) Record(name string, seconds float64, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	now := time.Now()
	s.reg.mu.Lock()
	defer s.reg.mu.Unlock()
	child := &Span{
		reg: s.reg, parent: s, name: name, start: now,
		offset: now.Sub(s.reg.start).Seconds(),
		dur:    seconds, model: true, attrs: attrs, ended: true,
	}
	s.kids = append(s.kids, child)
	return child
}

// End closes the span, fixing its wall-clock duration, and files root
// spans into the registry for export. Ending out of order is tolerated
// (the span is removed from wherever it sits on the open stack); double
// End is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	dur := time.Since(s.start).Seconds()
	r := s.reg
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	s.dur = dur
	for i := len(r.stack) - 1; i >= 0; i-- {
		if r.stack[i] == s {
			r.stack = append(r.stack[:i], r.stack[i+1:]...)
			break
		}
	}
	if s.parent == nil {
		r.fileRootLocked(s)
	}
}
