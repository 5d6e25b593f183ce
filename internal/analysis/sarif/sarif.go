// Package sarif encodes flatvet findings as a minimal SARIF 2.1.0 log,
// the interchange format CI code-scanning UIs ingest.
//
// The encoder is canonical: field order is fixed by the struct
// definitions, output is two-space indented, and Encode(Decode(b)) == b
// for any b Encode produced. Foreign SARIF (different field order,
// extra whitespace, unknown properties) is normalized by one
// decode/encode pass, after which the bytes are a fixpoint — the same
// contract the recorder journal keeps, pinned by a fuzz target. flatvet
// only writes logs, so Decode lives with that target in the tests.
package sarif

import (
	"bytes"
	"encoding/json"
)

// Version and Schema identify the SARIF dialect emitted.
const (
	Version = "2.1.0"
	Schema  = "https://json.schemastore.org/sarif-2.1.0.json"
)

// Log is the document root.
type Log struct {
	Schema  string `json:"$schema"`
	Version string `json:"version"`
	Runs    []Run  `json:"runs"`
}

// Run is one invocation of one tool.
type Run struct {
	Tool    Tool     `json:"tool"`
	Results []Result `json:"results"`
}

// Tool wraps the driver description.
type Tool struct {
	Driver Driver `json:"driver"`
}

// Driver describes the tool and declares its rules.
type Driver struct {
	Name           string `json:"name"`
	InformationURI string `json:"informationUri,omitempty"`
	Rules          []Rule `json:"rules"`
}

// Rule is one analyzer, declared once per run and referenced by
// results via RuleID.
type Rule struct {
	ID               string  `json:"id"`
	ShortDescription Message `json:"shortDescription"`
}

// Message is SARIF's string wrapper.
type Message struct {
	Text string `json:"text"`
}

// Result is one finding.
type Result struct {
	RuleID    string     `json:"ruleId"`
	Level     string     `json:"level"`
	Message   Message    `json:"message"`
	Locations []Location `json:"locations"`
}

// Location wraps the physical location of a finding.
type Location struct {
	PhysicalLocation PhysicalLocation `json:"physicalLocation"`
}

// PhysicalLocation is a file plus a region within it.
type PhysicalLocation struct {
	ArtifactLocation ArtifactLocation `json:"artifactLocation"`
	Region           Region           `json:"region"`
}

// ArtifactLocation is a (slash-separated, usually relative) file path.
type ArtifactLocation struct {
	URI string `json:"uri"`
}

// Region is a 1-based source position.
type Region struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// New assembles a single-run log for one tool.
func New(driver Driver, results []Result) Log {
	if results == nil {
		results = []Result{}
	}
	if driver.Rules == nil {
		driver.Rules = []Rule{}
	}
	return Log{
		Schema:  Schema,
		Version: Version,
		Runs:    []Run{{Tool: Tool{Driver: driver}, Results: results}},
	}
}

// Encode renders l in canonical form: two-space indent, fixed field
// order, trailing newline. Encode(Decode(Encode(l))) == Encode(l).
func Encode(l Log) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(l); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
