package main

import (
	"testing"
)

// TestCorruptPinIsAFailedOperation streams one fbmix_stream trace at the
// benchmark's size and default seed against the committed pins, then
// against a copy with that trace's pin corrupted.
func TestCorruptPinIsAFailedOperation(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	good := pins[wMix]
	if good["web"] == "" {
		t.Fatal("no pin for fbmix_stream trace web")
	}
	bad := map[string]string{}
	for k, v := range good {
		bad[k] = v
	}
	bad["web"] = "0" + good["web"][1:]
	if bad["web"] == good["web"] {
		bad["web"] = "1" + good["web"][1:]
	}
	for _, tc := range []struct {
		name   string
		pins   map[string]string
		failed int
	}{{"committed", good, 0}, {"corrupted", bad, 1}} {
		c := testChild(wMix)
		c.pins = tc.pins
		st, err := fbmixSetup(c)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := fbmixTrace(c, st, "web", fbmixFlowsPerTrace, -1); err != nil {
			t.Fatal(err)
		}
		if c.rep.Attempted != 1 || c.rep.Failed != tc.failed {
			t.Errorf("%s pins: attempted %d failed %d (%v), want 1 and %d", tc.name, c.rep.Attempted, c.rep.Failed, c.rep.Failures, tc.failed)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []spanRec{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 50, Parent: 0},
		{Name: "agg", Parent: 0, Count: 3, Sum: 20, Start: 60, End: 90},
		{Name: "aggkid", Parent: 3, Count: 3, Sum: 5},
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 20, 30, 20, 15, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: self %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}
