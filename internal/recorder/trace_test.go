package recorder

import (
	"bytes"
	"encoding/json"
	"testing"

	"flattree/internal/telemetry"
)

// decodeTrace parses the exporter's output into the generic structures a
// trace viewer reads.
func decodeTrace(t *testing.T, data []byte) (map[string]interface{}, []map[string]interface{}) {
	t.Helper()
	var top map[string]interface{}
	if err := json.Unmarshal(data, &top); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	raw, ok := top["traceEvents"].([]interface{})
	if !ok {
		t.Fatalf("traceEvents missing or not an array: %T", top["traceEvents"])
	}
	events := make([]map[string]interface{}, len(raw))
	for i, e := range raw {
		events[i], ok = e.(map[string]interface{})
		if !ok {
			t.Fatalf("traceEvents[%d] is %T", i, e)
		}
	}
	return top, events
}

func TestWriteTraceShape(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, populated(), nil); err != nil {
		t.Fatal(err)
	}
	top, events := decodeTrace(t, buf.Bytes())
	if top["displayTimeUnit"] != "ms" {
		t.Fatalf("displayTimeUnit = %v", top["displayTimeUnit"])
	}
	od := top["otherData"].(map[string]interface{})
	if od["note:workload"] != "permutation" {
		t.Fatalf("annotation not exported: %v", od)
	}

	var threadNames []string
	phases := map[string]int{}
	sawDropped := false
	for _, e := range events {
		ph := e["ph"].(string)
		phases[ph]++
		if ph == "M" && e["name"] == "thread_name" {
			threadNames = append(threadNames, e["args"].(map[string]interface{})["name"].(string))
		}
		if e["name"] == "dropped" {
			sawDropped = true
			d := e["args"].(map[string]interface{})["events_dropped"].(float64)
			if d != 3 {
				t.Fatalf("events_dropped = %v, want 3", d)
			}
		}
	}
	// One thread per track, in sorted track order.
	want := []string{"churn/clos/engine", "churn/clos/sim", "fig10/conversions"}
	if len(threadNames) != len(want) {
		t.Fatalf("thread names = %v", threadNames)
	}
	for i, n := range want {
		if threadNames[i] != n {
			t.Fatalf("thread %d = %q, want %q", i, threadNames[i], n)
		}
	}
	if !sawDropped {
		t.Fatal("overflowing track exported no dropped marker")
	}
	// The populated recorder has instants (rule deltas, flow start) and
	// slices (flow retire, conversion phase).
	if phases["i"] == 0 || phases["X"] == 0 || phases["M"] == 0 {
		t.Fatalf("phase census = %v", phases)
	}
}

func TestWriteTraceWindows(t *testing.T) {
	r := New(8)
	tr := r.Track("t")
	tr.Emit(Event{T: 2, Kind: Reaction, V: 0.5, A: 10, B: 12})
	tr.Emit(Event{T: 7, Kind: FlowRetire, ID: 3, V: 4, A: 1})
	var buf bytes.Buffer
	if err := WriteTrace(&buf, r, nil); err != nil {
		t.Fatal(err)
	}
	_, events := decodeTrace(t, buf.Bytes())
	var reaction, flow map[string]interface{}
	for _, e := range events {
		switch e["name"] {
		case "reaction":
			reaction = e
		case "flow 3":
			flow = e
		}
	}
	if reaction == nil || reaction["ph"] != "X" || reaction["ts"].(float64) != 2e6 || reaction["dur"].(float64) != 0.5e6 {
		t.Fatalf("reaction slice = %v", reaction)
	}
	// A retire at t=7 with FCT 4 renders the flow's lifetime [3s, 7s].
	if flow == nil || flow["ph"] != "X" || flow["ts"].(float64) != 3e6 || flow["dur"].(float64) != 4e6 {
		t.Fatalf("flow slice = %v", flow)
	}
}

func TestWriteTraceTelemetrySpans(t *testing.T) {
	reg := telemetry.Enable()
	defer telemetry.Disable()
	sp := telemetry.StartRootSpan("experiment:test")
	sp.Record("ocs", 0.17) // modeled: never elapsed on the wall clock
	sp.End()
	snap := reg.Snapshot()

	var buf bytes.Buffer
	if err := WriteTrace(&buf, nil, snap); err != nil {
		t.Fatal(err)
	}
	_, events := decodeTrace(t, buf.Bytes())
	var measured, modeled map[string]interface{}
	for _, e := range events {
		switch e["name"] {
		case "experiment:test":
			measured = e
		case "ocs":
			modeled = e
		}
	}
	if measured == nil || measured["tid"].(float64) != 1 {
		t.Fatalf("measured span = %v", measured)
	}
	// Modeled spans live on their own thread so a modeled duration
	// longer than its measured parent cannot break slice nesting.
	if modeled == nil || modeled["tid"].(float64) != 2 {
		t.Fatalf("modeled span = %v", modeled)
	}
	if modeled["args"].(map[string]interface{})["modeled"] != true {
		t.Fatalf("modeled span args = %v", modeled["args"])
	}
	if modeled["dur"].(float64) != 0.17e6 {
		t.Fatalf("modeled dur = %v", modeled["dur"])
	}
}
