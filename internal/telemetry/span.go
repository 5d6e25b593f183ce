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

// Span is one timed region of a run. Spans nest explicitly: a root comes
// from StartRootSpan and every other span from its parent, through Child
// (timed) or Record (modeled). A run forms a trace tree (an experiment
// root span over conversion spans over phase spans) that the code
// starting the spans decides, whichever goroutine runs first.
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
	ended  bool
	attrs  []Attr
	kids   []*Span
}

// newSpan opens a span with no parent, without filing it.
func (r *Registry) newSpan(name string, attrs []Attr) *Span {
	now := time.Now()
	return &Span{reg: r, name: name, start: now, offset: now.Sub(r.start).Seconds(), attrs: attrs}
}

// StartRootSpan opens a root span. It returns nil — a no-op span — on a
// nil registry. It takes no lock: a root joins the registry only when it
// ends.
func (r *Registry) StartRootSpan(name string, attrs ...Attr) *Span {
	if r == nil {
		return nil
	}
	return r.newSpan(name, attrs)
}

// Child opens a timed child span of s. It returns nil on a nil span, so
// disabled telemetry stays one branch.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.adopt(name, attrs, 0, false)
}

// Record attaches an already-finished child span with an explicit duration
// in seconds — how modeled phases (OCS reconfiguration, per-rule latency,
// transport ramp) enter a trace whose wall clock did not actually elapse.
func (s *Span) Record(name string, seconds float64, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.adopt(name, attrs, seconds, true)
}

// adopt opens a child of s and files it as the last of s's children:
// timed and running, or modeled and already ended after seconds.
func (s *Span) adopt(name string, attrs []Attr, seconds float64, modeled bool) *Span {
	kid := s.reg.newSpan(name, attrs)
	kid.parent, kid.dur, kid.model, kid.ended = s, seconds, modeled, modeled
	s.reg.mu.Lock()
	defer s.reg.mu.Unlock()
	s.kids = append(s.kids, kid)
	return kid
}

// SetAttr appends attributes to the span.
func (s *Span) SetAttr(attrs ...Attr) {
	if s != nil {
		s.setAttr(attrs)
	}
}

func (s *Span) setAttr(attrs []Attr) {
	s.reg.mu.Lock()
	defer s.reg.mu.Unlock()
	s.attrs = append(s.attrs, attrs...)
}

// End closes the span, fixing its wall-clock duration, and files a span
// with no parent into the registry as a root for export. Ending a parent
// before its children is tolerated; double End is a no-op.
func (s *Span) End() {
	if s != nil {
		s.end()
	}
}

func (s *Span) end() {
	dur := time.Since(s.start).Seconds()
	r := s.reg
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	s.dur = dur
	if s.parent == nil {
		r.fileRootLocked(s)
	}
}
