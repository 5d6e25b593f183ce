package recorder

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flattree/internal/telemetry"
)

func TestCollectRunInfo(t *testing.T) {
	reg := telemetry.Enable()
	defer telemetry.Disable()
	telemetry.C("flowsim_events_total").Add(42)
	snap := reg.Snapshot()

	r := populated()
	ri := CollectRunInfo("flatsim", 7, 4, map[string]string{"exp": "churn"}, r, snap)
	if ri.Tool != "flatsim" || ri.Seed != 7 || ri.Workers != 4 {
		t.Fatalf("identity fields: %+v", ri)
	}
	if ri.GoVersion == "" || ri.GitRev == "" {
		t.Fatalf("toolchain fields empty: %+v", ri)
	}
	if ri.RecordLimit != 4 {
		t.Fatalf("record limit = %d", ri.RecordLimit)
	}
	if ri.Annotations["workload"] != "permutation" {
		t.Fatalf("annotations = %v", ri.Annotations)
	}
	eng := ri.Tracks["churn/clos/engine"]
	if eng.Total != 7 || eng.Dropped != 3 || eng.Events != 4 {
		t.Fatalf("engine track stats = %+v", eng)
	}
	if ri.CounterDigest == "" || ri.CounterDigest == CounterDigest(nil) {
		t.Fatalf("digest ignores counters: %q", ri.CounterDigest)
	}
}

func TestCollectRunInfoDisabled(t *testing.T) {
	// Both subsystems off: the manifest still identifies the run.
	ri := CollectRunInfo("benchtables", 1, 0, nil, nil, nil)
	if ri.RecordLimit != 0 || ri.Tracks != nil || ri.Annotations != nil {
		t.Fatalf("disabled recorder leaked state: %+v", ri)
	}
	if ri.CounterDigest != CounterDigest(nil) {
		t.Fatal("nil snapshot digest not canonical")
	}
}

func TestRunInfoJSONDeterministic(t *testing.T) {
	r := populated()
	ri := CollectRunInfo("flatsim", 1, 0, map[string]string{"b": "2", "a": "1"}, r, nil)
	var x, y bytes.Buffer
	if err := ri.WriteJSON(&x); err != nil {
		t.Fatal(err)
	}
	if err := ri.WriteJSON(&y); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(x.Bytes(), y.Bytes()) {
		t.Fatal("manifest encoding not stable")
	}
	var decoded RunInfo
	if err := json.Unmarshal(x.Bytes(), &decoded); err != nil {
		t.Fatalf("manifest not valid JSON: %v", err)
	}
	if decoded.Flags["a"] != "1" || decoded.Flags["b"] != "2" {
		t.Fatalf("flags round-trip: %v", decoded.Flags)
	}
}

func TestCounterDigestSensitivity(t *testing.T) {
	a := &telemetry.Snapshot{Counters: map[string]int64{"x": 1, "y": 2}}
	b := &telemetry.Snapshot{Counters: map[string]int64{"y": 2, "x": 1}}
	c := &telemetry.Snapshot{Counters: map[string]int64{"x": 1, "y": 3}}
	if CounterDigest(a) != CounterDigest(b) {
		t.Fatal("digest depends on map order")
	}
	if CounterDigest(a) == CounterDigest(c) {
		t.Fatal("digest blind to counter values")
	}
	if CounterDigest(nil) != CounterDigest(&telemetry.Snapshot{}) {
		t.Fatal("nil and empty snapshots must digest alike")
	}
}

func TestFlagMap(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.String("exp", "", "")
	fs.Int64("seed", 1, "")
	if err := fs.Parse([]string{"-exp", "churn"}); err != nil {
		t.Fatal(err)
	}
	m := FlagMap(fs)
	if m["exp"] != "churn" {
		t.Fatalf("set flag missing: %v", m)
	}
	if m["seed"] != "1" {
		t.Fatalf("default flag missing: %v", m)
	}
	if strings.Contains(strings.Join([]string{m["exp"], m["seed"]}, ","), "\n") {
		t.Fatal("flag values must be single-line")
	}
}

// TestWriteRecordFiles pins the artifact set: with a base, the trace, the
// journal and the manifest land beside it and the manifest destination is
// not used; without one only the manifest is written, and an empty
// destination writes nothing.
func TestWriteRecordFiles(t *testing.T) {
	dir := t.TempDir()
	r := populated()
	base, unused := filepath.Join(dir, "run"), filepath.Join(dir, "unused.json")
	if err := WriteRecord("flatsim", r, nil, base, unused, 7, 2); err != nil {
		t.Fatal(err)
	}
	var journal bytes.Buffer
	if err := WriteJournal(&journal, r); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(base + ".jsonl"); err != nil || !bytes.Equal(got, journal.Bytes()) {
		t.Fatalf("journal file differs from WriteJournal (read error %v)", err)
	}
	if _, err := os.Stat(base + ".trace.json"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(base + ".runinfo.json")
	if err != nil {
		t.Fatal(err)
	}
	var ri RunInfo
	if err := json.Unmarshal(data, &ri); err != nil {
		t.Fatal(err)
	}
	if ri.Tool != "flatsim" || ri.Seed != 7 || ri.Workers != 2 || ri.Tracks["churn/clos/engine"].Total != 7 {
		t.Fatalf("manifest = %+v", ri)
	}
	if _, err := os.Stat(unused); !os.IsNotExist(err) {
		t.Fatalf("manifest destination written beside a base (stat: %v)", err)
	}

	only := filepath.Join(dir, "only.json")
	if err := WriteRecord("benchtables", nil, nil, "", only, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(only); err != nil {
		t.Fatal(err)
	}
	if err := WriteRecord("benchtables", nil, nil, "", "", 1, 0); err != nil {
		t.Fatal(err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 4 {
		t.Fatalf("%d files in the run directory, want 4", len(entries))
	}
}
