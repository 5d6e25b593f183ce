// Package recorder is the repository's sim-time flight recorder: a
// bounded, allocation-light capture of structured events stamped with
// *simulated* time — flow starts, stalls, reroutes and retirements from
// flowsim; link failures, repairs and control-plane reaction windows
// from churn; per-switch rule deltas from routing's incremental table;
// conversion phases from control. Where telemetry answers "how much
// happened", the recorder answers "when, and in what order".
//
// Like telemetry, recording is off by default: the global recorder is
// nil until Enable is called, and every Track handle obtained from a
// nil recorder is itself nil. Track.Emit on a nil Track is a single
// predictable branch (BenchmarkEmitDisabled), so instrumented event
// loops cost nothing when recording is off.
//
// Determinism is the design center. Events are grouped into named
// tracks, one per logical deterministic computation (one simulator run,
// one churn compilation, one experiment's conversions); instrumentation
// sites choose track names that are unique per concurrent computation,
// so each track's event sequence is reproducible regardless of
// goroutine interleaving or worker count. Each track is an independent
// ring buffer of the most recent events with an explicit drop counter —
// overflow is counted, never silent — which keeps the *surviving* event
// set deterministic too. Exporters (journal.go, trace.go) emit tracks
// in sorted name order, so two runs with the same seed produce
// byte-identical journals at any -workers value.
package recorder

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Kind classifies a recorded event.
type Kind uint8

const (
	// FlowStart marks a connection's admission into a simulation.
	FlowStart Kind = iota + 1
	// FlowStall marks a connection parking with no usable path
	// (graceful degradation); retries do not re-emit.
	FlowStall
	// FlowReroute marks a topology event replacing a connection's path
	// set; A is the new path count (0 = disconnected).
	FlowReroute
	// FlowRetire marks a connection completing; V is its FCT in sim
	// seconds and A its lifetime reroute count.
	FlowRetire
	// FlowDisconnect marks a connection parked permanently: no future
	// event can restore a path for it.
	FlowDisconnect
	// AllocRound marks one max-min allocation round; A is the number of
	// running connections, B the number admitted (running + stalled).
	AllocRound
	// LinkFail masks one physical link; ID is the link, A and B its
	// switch endpoints.
	LinkFail
	// LinkRepair restores one physical link; fields as LinkFail.
	LinkRepair
	// Reaction is the control-plane reaction window of one churn trace
	// event: [T, T+V] spans detection plus rule updates; A and B carry
	// the rules deleted and added.
	Reaction
	// RuleDelta is one switch's share of an incremental repair: ID is
	// the switch, A rules added, B rules deleted, at sim time T.
	RuleDelta
	// ConversionPhase is one phase of a topology conversion (Label
	// names it: ocs, rule_delete, rule_add, ramp) spanning [T, T+V].
	ConversionPhase
)

// kindNames maps kinds to their journal spellings, in Kind order.
var kindNames = [...]string{
	FlowStart:       "flow_start",
	FlowStall:       "flow_stall",
	FlowReroute:     "flow_reroute",
	FlowRetire:      "flow_retire",
	FlowDisconnect:  "flow_disconnect",
	AllocRound:      "alloc_round",
	LinkFail:        "link_fail",
	LinkRepair:      "link_repair",
	Reaction:        "reaction",
	RuleDelta:       "rule_delta",
	ConversionPhase: "conversion_phase",
}

// String returns the kind's journal spelling ("" for an invalid kind).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return ""
}

// Event is one recorded occurrence. The payload fields are generic so
// an Event is a fixed-size value — emitting one allocates nothing:
//
//	T      sim time in seconds
//	Kind   what happened
//	ID     the subject: flow index, link ID, or switch ID
//	A, B   integer payloads (counts, endpoints)
//	V      float payload (duration, delay, FCT)
//	Label  constant-string payload (phase name); avoid fmt.Sprintf here
type Event struct {
	T     float64
	Kind  Kind
	ID    int
	A, B  int64
	V     float64
	Label string
}

// Track is one deterministic event stream: a ring buffer of the most
// recent limit events plus a count of everything ever emitted. The nil
// Track is a valid no-op, which is how disabled recording stays off the
// hot path.
type Track struct {
	mu    sync.Mutex
	name  string
	limit int
	buf   []Event // ring; len < limit while filling
	head  int     // next write slot once full
	total uint64  // events ever emitted
}

// Emit appends one event. Once the ring is full the oldest event is
// overwritten and counted as dropped — a flight recorder keeps the most
// recent window, and the drop count makes truncation explicit. The
// wrapper stays small enough to inline, so the disabled (nil-Track)
// path compiles down to a single branch at the call site.
func (t *Track) Emit(ev Event) {
	if t == nil {
		return
	}
	t.emit(ev)
}

func (t *Track) emit(ev Event) {
	t.mu.Lock()
	if len(t.buf) < t.limit {
		t.buf = append(t.buf, ev)
	} else {
		t.buf[t.head] = ev
		t.head++
		if t.head == t.limit {
			t.head = 0
		}
	}
	t.total++
	t.mu.Unlock()
}

// snapshot copies the retained events oldest-first and reports the
// sequence number of the first retained event plus the emitted total.
func (t *Track) snapshot() (events []Event, first, total uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	events = make([]Event, 0, len(t.buf))
	if len(t.buf) == t.limit {
		events = append(events, t.buf[t.head:]...)
		events = append(events, t.buf[:t.head]...)
	} else {
		events = append(events, t.buf...)
	}
	return events, t.total - uint64(len(t.buf)), t.total
}

// DefaultLimit is the per-track ring capacity used when Enable is
// called with a non-positive limit.
const DefaultLimit = 1 << 16

// Recorder owns a run's tracks and annotations. The nil Recorder is
// valid: Track returns a nil (no-op) handle and Annotate is a no-op.
type Recorder struct {
	limit int

	mu     sync.Mutex
	tracks map[string]*Track
	notes  map[string]string
}

// New creates an empty recorder whose tracks retain up to limit events
// each (DefaultLimit when limit <= 0).
func New(limit int) *Recorder {
	if limit <= 0 {
		limit = DefaultLimit
	}
	return &Recorder{
		limit:  limit,
		tracks: make(map[string]*Track),
		notes:  make(map[string]string),
	}
}

// Limit returns the per-track ring capacity (0 for a nil Recorder).
func (r *Recorder) Limit() int {
	if r == nil {
		return 0
	}
	return r.limit
}

// Track returns (creating on first use) the named track. Handles should
// be fetched once per run, not per event — lookup takes the recorder
// lock. Concurrent computations must use distinct names: a track's
// internal order is only deterministic when a single deterministic
// computation drives it.
func (r *Recorder) Track(name string) *Track {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.tracks[name]; ok {
		return t
	}
	t := &Track{name: name, limit: r.limit}
	r.tracks[name] = t
	return t
}

// Annotate attaches a provenance key/value to the run (topology
// fingerprints, workload names); exported sorted by key.
func (r *Recorder) Annotate(key, value string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notes[key] = value
}

// Annotations returns a copy of the annotations (nil for nil).
func (r *Recorder) Annotations() map[string]string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]string, len(r.notes))
	for k, v := range r.notes {
		out[k] = v
	}
	return out
}

// TrackSnapshot is one track's export-ready copy.
type TrackSnapshot struct {
	Name string
	// First is the sequence number of Events[0]; nonzero exactly when
	// the ring dropped older events.
	First uint64
	// Total counts every event ever emitted; Total - len(Events) were
	// dropped.
	Total  uint64
	Events []Event
}

// Dropped returns how many of the track's events the ring overwrote.
func (s TrackSnapshot) Dropped() uint64 { return s.Total - uint64(len(s.Events)) }

// Snapshot copies every track in sorted name order — the deterministic
// ordering every exporter builds on. A nil recorder yields nil.
func (r *Recorder) Snapshot() []TrackSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.tracks))
	//flatvet:ordered keys are collected then sorted
	for n := range r.tracks {
		names = append(names, n)
	}
	tracks := make([]*Track, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		tracks = append(tracks, r.tracks[n])
	}
	r.mu.Unlock()

	out := make([]TrackSnapshot, len(tracks))
	for i, t := range tracks {
		events, first, total := t.snapshot()
		out[i] = TrackSnapshot{Name: t.name, First: first, Total: total, Events: events}
	}
	return out
}

// global is the process-wide recorder; nil means recording is disabled
// and every Track handle from the package-level accessors is a no-op.
var global atomic.Pointer[Recorder]

// Enable installs a fresh global recorder with the given per-track
// limit (DefaultLimit when <= 0) and returns it. Bounded scopes (tests)
// should defer Disable.
func Enable(limit int) *Recorder {
	r := New(limit)
	global.Store(r)
	return r
}

// Disable removes the global recorder; instrumented code reverts to the
// nil-handle fast path.
//
//flatvet:testonly tests in other packages restore the disabled default through it; a _test.go file cannot serve them
func Disable() { global.Store(nil) }

// Default returns the global recorder, or nil when recording is
// disabled.
func Default() *Recorder { return global.Load() }

// T returns the named track from the global recorder (nil when
// disabled).
func T(name string) *Track { return Default().Track(name) }
