package sarif

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"
)

func sample() Log {
	return New(
		Driver{
			Name:           "flatvet",
			InformationURI: "https://example.invalid/flatvet",
			Rules: []Rule{
				{ID: "lockcheck", ShortDescription: Message{Text: "blocking calls under the service mutex"}},
				{ID: "maporder", ShortDescription: Message{Text: "range over map in deterministic code"}},
			},
		},
		[]Result{
			{
				RuleID:  "maporder",
				Level:   "warning",
				Message: Message{Text: "range over map m is nondeterministic"},
				Locations: []Location{{PhysicalLocation: PhysicalLocation{
					ArtifactLocation: ArtifactLocation{URI: "internal/flowsim/sim.go"},
					Region:           Region{StartLine: 47, StartColumn: 2},
				}}},
			},
		},
	)
}

func TestEncodeDecodeByteIdentical(t *testing.T) {
	enc1, err := Encode(sample())
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(enc1)
	if err != nil {
		t.Fatalf("decoding own output: %v\n%s", err, enc1)
	}
	enc2, err := Encode(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc1, enc2) {
		t.Fatalf("decode->encode is not byte-identical:\nfirst:  %q\nsecond: %q", enc1, enc2)
	}
}

func TestEncodeShape(t *testing.T) {
	enc, err := Encode(sample())
	if err != nil {
		t.Fatal(err)
	}
	s := string(enc)
	for _, want := range []string{
		`"$schema": "` + Schema + `"`,
		`"version": "2.1.0"`,
		`"name": "flatvet"`,
		`"ruleId": "maporder"`,
		`"startLine": 47`,
		`"startColumn": 2`,
		`"uri": "internal/flowsim/sim.go"`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("encoded log missing %s:\n%s", want, s)
		}
	}
	if !strings.HasSuffix(s, "\n") {
		t.Error("encoded log must end with a newline")
	}
}

func TestDecodeRejects(t *testing.T) {
	cases := map[string]string{
		"trailing garbage": `{"$schema":"x","version":"2.1.0","runs":[]} {"more":1}`,
		"wrong version":    `{"$schema":"x","version":"1.0.0","runs":[]}`,
		"not json":         `]]]`,
	}
	for name, in := range cases {
		if _, err := Decode([]byte(in)); err == nil {
			t.Errorf("%s: Decode accepted %q", name, in)
		}
	}
}

func TestDecodeNormalizesNils(t *testing.T) {
	l, err := Decode([]byte(`{"$schema":"x","version":"2.1.0","runs":[{"tool":{"driver":{"name":"flatvet"}}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if l.Runs[0].Results == nil || l.Runs[0].Tool.Driver.Rules == nil {
		t.Fatalf("nil results/rules not normalized to empty slices: %+v", l.Runs[0])
	}
	enc1, err := Encode(l)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := Decode(enc1)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := Encode(l2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc1, enc2) {
		t.Fatalf("normalized form is not a fixpoint:\n%q\n%q", enc1, enc2)
	}
}

// Decode parses a SARIF log, rejecting trailing garbage and version
// mismatches. Unknown properties are dropped, which is what makes one
// decode/encode pass normalizing.
func Decode(data []byte) (Log, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	var l Log
	if err := dec.Decode(&l); err != nil {
		return Log{}, fmt.Errorf("sarif: decode: %w", err)
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		return Log{}, fmt.Errorf("sarif: trailing data after log")
	}
	if l.Version != Version {
		return Log{}, fmt.Errorf("sarif: unsupported version %q (want %q)", l.Version, Version)
	}
	for i := range l.Runs {
		if l.Runs[i].Results == nil {
			l.Runs[i].Results = []Result{}
		}
		if l.Runs[i].Tool.Driver.Rules == nil {
			l.Runs[i].Tool.Driver.Rules = []Rule{}
		}
	}
	return l, nil
}
