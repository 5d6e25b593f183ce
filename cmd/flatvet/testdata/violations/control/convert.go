// Package control seeds the spanend violations.
package control

import "violations/telemetry"

// Convert discards the span outright: spanend fires.
func Convert() {
	telemetry.StartRootSpan("convert")
}

// Apply binds a child span but never ends it: spanend fires.
func Apply(parent *telemetry.Span) {
	span := parent.Child("apply")
	span.SetAttr("phase", "rules")
}

// Good is the correct shape and must stay silent.
func Good(parent *telemetry.Span) {
	span := parent.Child("good")
	defer span.End()
}
