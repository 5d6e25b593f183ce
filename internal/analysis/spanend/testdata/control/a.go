package control

import "scope/telemetry"

// DeferEnd is the canonical correct shape: allowed.
func DeferEnd() {
	span := telemetry.StartRootSpan("convert")
	defer span.End()
	work()
}

// ExplicitEnd ends without defer: allowed.
func ExplicitEnd() {
	span := telemetry.StartRootSpan("experiment")
	work()
	span.End()
}

// Discarded never binds the span: reported.
func Discarded() {
	telemetry.StartRootSpan("oops") // want `result of StartRootSpan discarded`
	work()
}

// Blank assigns to _: reported.
func Blank() {
	_ = telemetry.StartRootSpan("oops") // want `result of StartRootSpan assigned to _`
	work()
}

// Leaked binds the span but never ends it: reported.
func Leaked() {
	span := telemetry.StartRootSpan("leak") // want `span from StartRootSpan never reaches End in this function`
	span.SetAttr("k", "v")
	work()
}

// MethodStart leaks a span started via a registry method: reported.
func MethodStart(r *telemetry.Registry) {
	span := r.StartRootSpan("leak") // want `span from StartRootSpan never reaches End in this function`
	work()
	_ = span.Name
}

// ChildDeferEnd opens a timed child of its caller's span and ends it
// on return: allowed.
func ChildDeferEnd(parent *telemetry.Span) {
	span := parent.Child("phase")
	defer span.End()
	work()
}

// ChildLeaked opens a child that never ends: reported.
func ChildLeaked(parent *telemetry.Span) {
	span := parent.Child("phase") // want `span from Child never reaches End in this function`
	span.SetAttr("k", "v")
	work()
}

// ChildDiscarded drops a child outright: reported.
func ChildDiscarded(h *holder) {
	h.s.Child("phase") // want `result of Child discarded`
}

// Escapes hands the span to a helper: that helper owns it, allowed.
func Escapes() {
	span := telemetry.StartRootSpan("handoff")
	finish(span)
}

// Returned gives the span to the caller: allowed.
func Returned() *telemetry.Span {
	return telemetry.StartRootSpan("caller-owned")
}

// Stored escapes into a struct: allowed (conservative).
type holder struct{ s *telemetry.Span }

func Stored(h *holder) {
	span := telemetry.StartRootSpan("stored")
	h.s = span
}

// InClosure starts and ends within a function literal: allowed.
func InClosure() func() {
	return func() {
		span := telemetry.StartRootSpan("inner")
		defer span.End()
		work()
	}
}

// ClosureLeak leaks within the function literal: reported there.
func ClosureLeak() func() {
	return func() {
		span := telemetry.StartRootSpan("inner-leak") // want `span from StartRootSpan never reaches End in this function`
		work()
		span.SetAttr("k", "v")
	}
}

// Waived long-lived span: allowed.
func Waived() {
	//flatvet:span process-lifetime span, ended by the exporter on shutdown
	span := telemetry.StartRootSpan("process")
	span.SetAttr("k", "v")
	work()
}

func finish(s *telemetry.Span) { s.End() }

func work() {}
