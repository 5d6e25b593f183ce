package recorder

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// The JSONL journal is the recorder's replay-diff format: one JSON
// object per line, in a canonical field order, emitted deterministically
// (header, annotations sorted by key, then tracks sorted by name — a
// meta line with totals followed by the retained events in sequence
// order). Two runs with the same seed produce byte-identical journals
// at any worker count, so `diff a.jsonl b.jsonl` is a correctness
// check, not a formatting exercise.
//
// Decoding reverses the encoding exactly: DecodeJournal(EncodeJournal(x))
// round-trips, and re-encoding a decoded journal reproduces the input
// byte for byte (the fuzz target pins this fixpoint).

// JournalVersion identifies the line schema.
const JournalVersion = 1

// journalMagic is the header line's self-identification.
const journalMagic = "flattree/recorder"

// JournalLine is the decoded form of one journal line. Exactly one of
// the three shapes is populated:
//
//   - header: Journal != "" (Version, Limit)
//   - annotation: Note != "" (Value)
//   - track meta: Track != "" with Total/Dropped set and Kind == ""
//   - event: Track != "" with Kind != "" (Seq, T, ID, A, B, V, Label)
//
// Pointer fields distinguish "absent" from zero so a decoded line
// re-encodes to the exact bytes it came from.
type JournalLine struct {
	Journal string `json:"journal,omitempty"`
	Version int    `json:"version,omitempty"`
	Limit   int    `json:"limit,omitempty"`

	Note  string `json:"note,omitempty"`
	Value string `json:"value,omitempty"`

	Track   string  `json:"track,omitempty"`
	Total   *uint64 `json:"total,omitempty"`
	Dropped *uint64 `json:"dropped,omitempty"`

	Seq   *uint64 `json:"seq,omitempty"`
	T     float64 `json:"t,omitempty"`
	Kind  string  `json:"kind,omitempty"`
	ID    int     `json:"id,omitempty"`
	A     int64   `json:"a,omitempty"`
	B     int64   `json:"b,omitempty"`
	V     float64 `json:"v,omitempty"`
	Label string  `json:"label,omitempty"`
}

// EncodeLine renders one line in canonical form (no trailing newline).
func EncodeLine(l JournalLine) ([]byte, error) { return json.Marshal(l) }

// DecodeLine parses one canonical line.
func DecodeLine(data []byte) (JournalLine, error) {
	var l JournalLine
	err := json.Unmarshal(data, &l)
	return l, err
}

// WriteJournal renders the recorder's full state as JSONL. A nil
// recorder writes only the header line.
func WriteJournal(w io.Writer, r *Recorder) error {
	bw := bufio.NewWriter(w)
	writeLine := func(l JournalLine) error {
		b, err := EncodeLine(l)
		if err != nil {
			return err
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
		return bw.WriteByte('\n')
	}
	if err := writeLine(JournalLine{Journal: journalMagic, Version: JournalVersion, Limit: r.Limit()}); err != nil {
		return err
	}
	notes := r.Annotations()
	for _, k := range sortedNoteKeys(notes) {
		if err := writeLine(JournalLine{Note: k, Value: notes[k]}); err != nil {
			return err
		}
	}
	for _, ts := range r.Snapshot() {
		total, dropped := ts.Total, ts.Dropped()
		if err := writeLine(JournalLine{Track: ts.Name, Total: &total, Dropped: &dropped}); err != nil {
			return err
		}
		for i, ev := range ts.Events {
			seq := ts.First + uint64(i)
			if err := writeLine(JournalLine{
				Track: ts.Name, Seq: &seq, T: ev.T, Kind: ev.Kind.String(),
				ID: ev.ID, A: ev.A, B: ev.B, V: ev.V, Label: ev.Label,
			}); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Journal is a decoded journal: the run header plus every line in file
// order.
type Journal struct {
	Version int
	Limit   int
	Lines   []JournalLine
}

// DecodeJournal parses a journal written by WriteJournal. The first
// line must be the header; every subsequent line must parse. Lines
// retain file order, so re-encoding reproduces the input.
//
//flatvet:testonly flatd's durable journal (ROADMAP) decodes its journal at boot
func DecodeJournal(data []byte) (*Journal, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	j := &Journal{}
	first := true
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		l, err := DecodeLine(line)
		if err != nil {
			return nil, fmt.Errorf("recorder: journal line %d: %w", len(j.Lines)+1, err)
		}
		if first {
			if l.Journal != journalMagic {
				return nil, fmt.Errorf("recorder: not a journal (header %q)", l.Journal)
			}
			j.Version = l.Version
			j.Limit = l.Limit
			first = false
		}
		j.Lines = append(j.Lines, l)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if first {
		return nil, fmt.Errorf("recorder: empty journal")
	}
	return j, nil
}

// Events returns the journal's event lines (Kind != "") in file order.
//
//flatvet:testonly flatd's boot replay (ROADMAP) folds these events into its route table
func (j *Journal) Events() []JournalLine {
	var out []JournalLine
	for _, l := range j.Lines {
		if l.Track != "" && l.Kind != "" {
			out = append(out, l)
		}
	}
	return out
}

// sortedNoteKeys returns the annotation keys in ascending order.
func sortedNoteKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	//flatvet:ordered keys are collected then sorted
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
