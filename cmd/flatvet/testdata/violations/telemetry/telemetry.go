// Package telemetry is a stub of the real telemetry package: spanend
// recognizes StartRootSpan and Child provided by any package whose
// final import-path segment is "telemetry".
package telemetry

type Span struct{ Name string }

func (s *Span) End()                    {}
func (s *Span) SetAttr(k, v string)     {}
func (s *Span) Child(name string) *Span { return &Span{Name: name} }

func StartRootSpan(name string) *Span { return &Span{Name: name} }
