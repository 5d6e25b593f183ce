package recorder

import (
	"fmt"
	"sync"
	"testing"
)

func TestKindStringRoundTrip(t *testing.T) {
	for k := FlowStart; k <= ConversionPhase; k++ {
		s := k.String()
		if s == "" {
			t.Fatalf("kind %d has no spelling", k)
		}
		got, ok := KindFromString(s)
		if !ok || got != k {
			t.Fatalf("KindFromString(%q) = %v, %v; want %v", s, got, ok, k)
		}
	}
	if Kind(0).String() != "" || Kind(200).String() != "" {
		t.Fatal("invalid kinds must render empty")
	}
	if _, ok := KindFromString("no_such_kind"); ok {
		t.Fatal("unknown spelling resolved")
	}
}

func TestTrackRingKeepsMostRecent(t *testing.T) {
	r := New(4)
	tr := r.Track("x")
	for i := 0; i < 10; i++ {
		tr.Emit(Event{T: float64(i), Kind: FlowStart, ID: i})
	}
	snaps := r.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("tracks = %d", len(snaps))
	}
	s := snaps[0]
	if s.Total != 10 || s.Dropped() != 6 || s.First != 6 {
		t.Fatalf("total/dropped/first = %d/%d/%d, want 10/6/6", s.Total, s.Dropped(), s.First)
	}
	if len(s.Events) != 4 {
		t.Fatalf("retained %d events, want 4", len(s.Events))
	}
	// Oldest-first, the last 4 emitted.
	for i, ev := range s.Events {
		if ev.ID != 6+i {
			t.Fatalf("event %d has ID %d, want %d", i, ev.ID, 6+i)
		}
	}
	if tr.Dropped() != 6 || tr.Len() != 4 {
		t.Fatalf("Dropped/Len = %d/%d", tr.Dropped(), tr.Len())
	}
}

func TestTrackNoDropUnderLimit(t *testing.T) {
	r := New(8)
	tr := r.Track("x")
	for i := 0; i < 5; i++ {
		tr.Emit(Event{ID: i})
	}
	s := r.Snapshot()[0]
	if s.Dropped() != 0 || s.First != 0 || len(s.Events) != 5 {
		t.Fatalf("dropped/first/events = %d/%d/%d", s.Dropped(), s.First, len(s.Events))
	}
}

func TestNilSafety(t *testing.T) {
	var r *Recorder
	tr := r.Track("anything")
	if tr != nil {
		t.Fatal("nil recorder returned a live track")
	}
	tr.Emit(Event{Kind: FlowStart}) // must not panic
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Name() != "" {
		t.Fatal("nil track not a no-op")
	}
	r.Annotate("k", "v")
	if r.Annotations() != nil || r.Snapshot() != nil || r.Limit() != 0 {
		t.Fatal("nil recorder accessors not zero")
	}
}

func TestGlobalEnableDisable(t *testing.T) {
	defer Disable()
	if Default() != nil {
		t.Fatal("recording enabled before Enable")
	}
	T("x").Emit(Event{Kind: FlowStart}) // disabled: no-op
	r := Enable(16)
	if Default() != r || r.Limit() != 16 {
		t.Fatal("Enable did not install the recorder")
	}
	T("x").Emit(Event{Kind: FlowStart})
	if got := r.Snapshot(); len(got) != 1 || got[0].Total != 1 {
		t.Fatalf("global track missed the event: %+v", got)
	}
	Disable()
	if Default() != nil {
		t.Fatal("Disable did not clear the recorder")
	}
}

func TestSnapshotSortedAndAnnotations(t *testing.T) {
	r := New(0)
	if r.Limit() != DefaultLimit {
		t.Fatalf("default limit = %d", r.Limit())
	}
	for _, name := range []string{"z", "a", "m"} {
		r.Track(name).Emit(Event{Kind: FlowStart})
	}
	var got []string
	for _, s := range r.Snapshot() {
		got = append(got, s.Name)
	}
	if fmt.Sprint(got) != "[a m z]" {
		t.Fatalf("tracks not sorted: %v", got)
	}
	r.Annotate("fp", "1")
	r.Annotate("fp", "2") // last write wins
	if n := r.Annotations(); n["fp"] != "2" {
		t.Fatalf("annotations = %v", n)
	}
}

func TestTrackHandleStable(t *testing.T) {
	r := New(8)
	if r.Track("a") != r.Track("a") {
		t.Fatal("same name returned distinct tracks")
	}
}

// TestConcurrentDistinctTracks exercises the documented concurrency
// contract: goroutines on distinct tracks never interleave events
// within a track, so each track's sequence stays deterministic.
func TestConcurrentDistinctTracks(t *testing.T) {
	r := New(1 << 10)
	const n, per = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tr := r.Track(fmt.Sprintf("track-%d", g))
			for i := 0; i < per; i++ {
				tr.Emit(Event{T: float64(i), Kind: AllocRound, ID: i})
			}
		}(g)
	}
	wg.Wait()
	for _, s := range r.Snapshot() {
		if s.Total != per || len(s.Events) != per {
			t.Fatalf("track %s: total=%d kept=%d", s.Name, s.Total, len(s.Events))
		}
		for i, ev := range s.Events {
			if ev.ID != i {
				t.Fatalf("track %s out of order at %d: %d", s.Name, i, ev.ID)
			}
		}
	}
}

// BenchmarkEmitDisabled pins the acceptance bound: with recording off,
// an instrumented call site costs one nil check (~1 ns or less).
func BenchmarkEmitDisabled(b *testing.B) {
	var tr *Track
	ev := Event{T: 1, Kind: FlowStart, ID: 7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(ev)
	}
}

// BenchmarkEmitEnabled measures the live path: one mutex round trip and
// a ring write, no allocation after the ring fills.
func BenchmarkEmitEnabled(b *testing.B) {
	r := New(1 << 12)
	tr := r.Track("bench")
	ev := Event{T: 1, Kind: FlowStart, ID: 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Emit(ev)
	}
}

// KindFromString resolves a journal spelling back to its Kind (0, false
// for an unknown spelling).
func KindFromString(s string) (Kind, bool) {
	for k, n := range kindNames {
		if n != "" && n == s {
			return Kind(k), true
		}
	}
	return 0, false
}

// Name returns the track's name ("" for a nil Track).
func (t *Track) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// Len returns the number of retained events (0 for a nil Track).
func (t *Track) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// Dropped returns how many events the ring overwrote (0 for nil).
func (t *Track) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total - uint64(len(t.buf))
}

// Dropped sums the drop counters over all tracks.
func (r *Recorder) Dropped() uint64 {
	var n uint64
	for _, s := range r.Snapshot() {
		n += s.Dropped()
	}
	return n
}
