package flowsim

import (
	"time"

	"scope/telemetry"
)

// EventTimestamp stamps simulation events with wall time: reported.
func EventTimestamp() int64 {
	return time.Now().UnixNano() // want `wall-clock time.Now in simulated-time package`
}

// Deadline couples sim logic to the host clock: reported.
func Deadline(start time.Time) bool {
	return time.Since(start) > time.Second // want `wall-clock time.Since in simulated-time package`
}

// DirectTelemetry reads the clock inside a telemetry call: allowed.
func DirectTelemetry() {
	telemetry.ObserveAt("tick", time.Now())
}

// SpanSince feeds a method on a telemetry type: allowed.
func SpanSince(start time.Time) {
	s := telemetry.StartRootSpan("phase")
	defer s.End()
	s.ObserveSince(start)
}

// TimedPhase is the start/Since instrumentation shape: the variable's
// only use is inside a telemetry call, so both reads are allowed.
func TimedPhase() {
	start := time.Now()
	work()
	telemetry.ObserveDuration("phase", time.Since(start))
}

// MixedUse also branches on the clock value, so it is sim logic:
// reported.
func MixedUse() bool {
	start := time.Now() // want `wall-clock time.Now in simulated-time package`
	work()
	telemetry.ObserveDuration("phase", time.Since(start))
	return time.Since(start) > time.Second // want `wall-clock time.Since in simulated-time package`
}

// Waived keeps an explicit escape hatch: allowed.
func Waived() time.Time {
	//flatvet:clock boot banner only, never enters event processing
	return time.Now()
}

func work() {}
