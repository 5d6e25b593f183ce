package testbed

import (
	"math"
	"testing"

	"flattree/internal/control"
	"flattree/internal/core"
	"flattree/internal/telemetry"
)

// TestConversionPhaseSpans asserts that a Table 3-style conversion on the
// testbed traces as the four phases in order — OCS, rule-delete, rule-add,
// ramp — with durations and rule-count attributes matching the control
// package's delay model.
func TestConversionPhaseSpans(t *testing.T) {
	reg := telemetry.Enable()
	t.Cleanup(telemetry.Disable)

	tb, err := New()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tb.Ctrl.Convert(core.ModeGlobal)
	if err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	var conv *telemetry.SpanSnapshot
	for i := range snap.Spans {
		if snap.Spans[i].Name == "conversion" {
			conv = &snap.Spans[i]
		}
	}
	if conv == nil {
		t.Fatalf("no conversion span in snapshot; roots: %+v", snap.Spans)
	}
	if got := conv.Attrs["to"]; got != core.ModeGlobal.String() {
		t.Fatalf(`conversion attr to = %v, want %q`, got, core.ModeGlobal.String())
	}

	want := []string{"ocs", "rule-delete", "rule-add", "ramp"}
	if len(conv.Children) != len(want) {
		t.Fatalf("conversion has %d phases, want %d: %+v", len(conv.Children), len(want), conv.Children)
	}
	for i, name := range want {
		if conv.Children[i].Name != name {
			t.Fatalf("phase %d = %q, want %q", i, conv.Children[i].Name, name)
		}
		if !conv.Children[i].Modeled {
			t.Fatalf("phase %q not marked as modeled", name)
		}
	}

	// Durations must reproduce the delay model exactly.
	model := control.TestbedDelayModel()
	phase := func(name string) *telemetry.SpanSnapshot {
		for i := range conv.Children {
			if conv.Children[i].Name == name {
				return &conv.Children[i]
			}
		}
		t.Fatalf("phase %q missing", name)
		return nil
	}
	checks := []struct {
		name string
		want float64
	}{
		{"ocs", model.OCSReconfig},
		{"rule-delete", float64(rep.RulesDeleted) * model.PerRuleDelete},
		{"rule-add", float64(rep.RulesAdded) * model.PerRuleAdd},
		{"ramp", model.Ramp},
	}
	for _, c := range checks {
		if got := phase(c.name).DurationSeconds; math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("phase %q duration = %v, want %v", c.name, got, c.want)
		}
	}

	// Rule-count attributes must match the report.
	if got := phase("rule-delete").Attrs["rules_deleted"]; got != rep.RulesDeleted {
		t.Fatalf("rules_deleted attr = %v, want %d", got, rep.RulesDeleted)
	}
	if got := phase("rule-add").Attrs["rules_added"]; got != rep.RulesAdded {
		t.Fatalf("rules_added attr = %v, want %d", got, rep.RulesAdded)
	}
	if rep.RampTime != model.Ramp {
		t.Fatalf("report RampTime = %v, want %v", rep.RampTime, model.Ramp)
	}
}
