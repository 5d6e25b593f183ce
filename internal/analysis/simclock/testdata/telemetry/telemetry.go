// Package telemetry is a stub of the real telemetry package: simclock
// whitelists wall-clock reads that feed calls into a package whose
// final import-path segment is "telemetry".
package telemetry

import "time"

func ObserveDuration(name string, d time.Duration) {}

func ObserveAt(name string, t time.Time) {}

type Span struct{}

func (s *Span) End()                         {}
func (s *Span) ObserveSince(start time.Time) {}
func StartRootSpan(name string) *Span        { return &Span{} }
