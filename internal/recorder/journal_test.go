package recorder

import (
	"bytes"
	"strings"
	"testing"
)

// populated builds a recorder with annotations, multiple tracks, a
// dropped-events track, and every payload field exercised.
func populated() *Recorder {
	r := New(4)
	r.Annotate("topology_fingerprint/clos", "abc123")
	r.Annotate("workload", "permutation")
	sim := r.Track("churn/clos/sim")
	sim.Emit(Event{T: 0, Kind: FlowStart, ID: 0, A: 8})
	sim.Emit(Event{T: 0.5, Kind: FlowReroute, ID: 0, A: 6})
	sim.Emit(Event{T: 1.25, Kind: FlowRetire, ID: 0, V: 1.25, A: 1})
	eng := r.Track("churn/clos/engine")
	for i := 0; i < 7; i++ { // overflows the 4-slot ring
		eng.Emit(Event{T: float64(i), Kind: RuleDelta, ID: i, A: 2, B: 3})
	}
	conv := r.Track("fig10/conversions")
	conv.Emit(Event{T: 60, Kind: ConversionPhase, V: 0.17, Label: "ocs"})
	return r
}

func TestWriteJournalDeterministic(t *testing.T) {
	r := populated()
	var a, b bytes.Buffer
	if err := WriteJournal(&a, r); err != nil {
		t.Fatal(err)
	}
	if err := WriteJournal(&b, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two encodings of the same recorder differ")
	}
}

func TestJournalShape(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJournal(&buf, populated()); err != nil {
		t.Fatal(err)
	}
	j, err := DecodeJournal(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if j.Version != JournalVersion || j.Limit != 4 {
		t.Fatalf("header version/limit = %d/%d", j.Version, j.Limit)
	}
	// Annotations sorted by key, before any track line.
	if j.Lines[1].Note != "topology_fingerprint/clos" || j.Lines[2].Note != "workload" {
		t.Fatalf("annotation order: %+v %+v", j.Lines[1], j.Lines[2])
	}
	// Tracks in sorted name order; engine ring dropped 3 of 7.
	if j.Lines[3].Track != "churn/clos/engine" || *j.Lines[3].Total != 7 || *j.Lines[3].Dropped != 3 {
		t.Fatalf("first track meta: %+v", j.Lines[3])
	}
	// First retained engine event carries seq 3 (events 0..2 dropped).
	if *j.Lines[4].Seq != 3 || j.Lines[4].Kind != "rule_delta" || j.Lines[4].ID != 3 {
		t.Fatalf("first engine event: %+v", j.Lines[4])
	}
	if got := len(j.Events()); got != 8 {
		t.Fatalf("event lines = %d, want 8 (4 engine + 3 sim + 1 conversion)", got)
	}
}

func TestJournalRoundTripFixpoint(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJournal(&buf, populated()); err != nil {
		t.Fatal(err)
	}
	j, err := DecodeJournal(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	enc, err := j.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, buf.Bytes()) {
		t.Fatalf("decode→encode is not the identity:\n in: %q\nout: %q", buf.Bytes(), enc)
	}
}

func TestWriteJournalNilRecorder(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJournal(&buf, nil); err != nil {
		t.Fatal(err)
	}
	j, err := DecodeJournal(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Lines) != 1 || j.Limit != 0 {
		t.Fatalf("nil recorder journal: %+v", j)
	}
}

func TestDecodeJournalRejects(t *testing.T) {
	for name, in := range map[string]string{
		"empty":      "",
		"blank":      "\n\n",
		"not-json":   "hello\n",
		"bad-header": `{"note":"x","value":"y"}` + "\n",
	} {
		if _, err := DecodeJournal([]byte(in)); err == nil {
			t.Errorf("%s: DecodeJournal accepted %q", name, in)
		}
	}
}

func TestDecodeJournalSkipsBlankLines(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJournal(&buf, populated()); err != nil {
		t.Fatal(err)
	}
	padded := strings.ReplaceAll(buf.String(), "\n", "\n\n")
	j, err := DecodeJournal([]byte(padded))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := j.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, buf.Bytes()) {
		t.Fatal("blank-line padding changed the decoded journal")
	}
}

// Encode re-renders a decoded journal in canonical form; for a journal
// produced by WriteJournal this reproduces the original bytes.
func (j *Journal) Encode() ([]byte, error) {
	var buf bytes.Buffer
	for _, l := range j.Lines {
		b, err := EncodeLine(l)
		if err != nil {
			return nil, err
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes(), nil
}
