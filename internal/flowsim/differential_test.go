package flowsim

import (
	"math"
	"math/rand"
	"testing"

	"flattree/internal/recorder"
)

// The differential suite pins the struct-of-arrays core (loop.go, soa.go)
// to the retained seed implementation (reference_test.go): same seeded
// workload in, byte-identical ConnResult slices out — rates (via finish
// times), FCTs, stall times, reroute counts. Scenarios cover the static
// case, churn traces with disconnect/repair events, and the parallel-link
// topology of the convertible fabrics.

// diffScenario is one seeded workload both cores run.
type diffScenario struct {
	caps   []float64
	specs  []ConnSpec
	events []TopoEvent
	// horizon, retryBase, retryMax configure the Sim; graceful is set by
	// Schedule when events exist, or explicitly for stall scenarios.
	horizon             float64
	retryBase, retryMax float64
	graceful            bool
	// rec, when set, records the run (Sim.Rec).
	rec *recorder.Track
}

func (sc diffScenario) sim() *Sim {
	s := NewSim(sc.caps, sc.specs)
	if sc.events != nil {
		s.Schedule(sc.events)
	}
	s.Graceful = s.Graceful || sc.graceful
	s.Horizon = sc.horizon
	s.RetryBase, s.RetryMax = sc.retryBase, sc.retryMax
	s.Rec = sc.rec
	return s
}

// recorded runs sc through run with a fresh flight recorder attached and
// returns the results, the recorded events and the error.
func recorded(sc diffScenario, run func(diffScenario) ([]ConnResult, error)) ([]ConnResult, []recorder.Event, error) {
	rec := recorder.New(1 << 16)
	sc.rec = rec.Track("sim")
	res, err := run(sc)
	return res, rec.Snapshot()[0].Events, err
}

// requireSameEvents fails unless two flight-recorder streams match event
// for event.
func requireSameEvents(t *testing.T, seed int64, got, want []recorder.Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("seed %d: %d recorded events vs %d", seed, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("seed %d: event %d diverged:\n  got:  %+v\n  want: %+v", seed, i, got[i], want[i])
		}
	}
}

// randomPaths draws a path set over nLinks: multipath with short link
// lists, occasionally a loopback (empty) path, occasionally a duplicate
// link inside one path — the reference charges one weight per occurrence
// and the SoA core must too.
func randomPaths(rng *rand.Rand, nLinks int) [][]int {
	np := 1 + rng.Intn(3)
	paths := make([][]int, 0, np)
	for p := 0; p < np; p++ {
		if rng.Intn(8) == 0 {
			paths = append(paths, []int{}) // loopback subflow
			continue
		}
		hops := 1 + rng.Intn(4)
		links := make([]int, 0, hops)
		for len(links) < hops {
			links = append(links, rng.Intn(nLinks))
		}
		if rng.Intn(10) == 0 && len(links) > 1 {
			links[1] = links[0] // duplicate occurrence on purpose
		}
		paths = append(paths, links)
	}
	return paths
}

// randomDiffScenario builds a seeded churn-style workload: random fabric,
// mixed TCP/MPTCP specs with staggered arrivals, and failure/repair
// events that zero capacities, reroute, disconnect (empty path set), and
// restore.
func randomDiffScenario(seed int64, withEvents bool) diffScenario {
	rng := rand.New(rand.NewSource(seed))
	nLinks := 8 + rng.Intn(24)
	caps := make([]float64, nLinks)
	for l := range caps {
		caps[l] = 1 + 9*rng.Float64()
	}
	nConns := 3 + rng.Intn(28)
	specs := make([]ConnSpec, nConns)
	horizon := 0.0
	if rng.Intn(2) == 0 {
		horizon = 6
	}
	for i := range specs {
		bits := 0.5 + 20*rng.Float64()
		if horizon > 0 && rng.Intn(10) == 0 {
			bits = math.Inf(1) // persistent, cut off by the horizon
		}
		w := 0.0 // default weight
		if rng.Intn(3) == 0 {
			w = 0.25 + 1.75*rng.Float64()
		}
		specs[i] = ConnSpec{
			Paths:   randomPaths(rng, nLinks),
			Bits:    bits,
			Arrival: 3 * rng.Float64(),
			Weight:  w,
		}
	}
	sc := diffScenario{caps: caps, specs: specs, horizon: horizon}
	if !withEvents {
		return sc
	}
	nEvents := 1 + rng.Intn(8)
	failed := make(map[int]float64)
	for e := 0; e < nEvents; e++ {
		ev := TopoEvent{Time: 4 * rng.Float64()}
		switch rng.Intn(3) {
		case 0: // failure: zero 1..3 link slots
			ev.SetCaps = map[int]float64{}
			for k := 0; k < 1+rng.Intn(3); k++ {
				l := rng.Intn(nLinks)
				if _, dead := failed[l]; !dead {
					failed[l] = caps[l]
				}
				ev.SetCaps[l] = 0
			}
		case 1: // repair: restore everything failed so far
			if len(failed) == 0 {
				continue
			}
			ev.SetCaps = map[int]float64{}
			for l, c := range failed {
				ev.SetCaps[l] = c
			}
			failed = make(map[int]float64)
		case 2: // control-plane reaction: reroute, sometimes disconnect
			ev.Reroute = map[int][][]int{}
			for k := 0; k < 1+rng.Intn(3); k++ {
				c := rng.Intn(nConns)
				if rng.Intn(3) == 0 {
					ev.Reroute[c] = nil // disconnected until a later reroute
				} else {
					ev.Reroute[c] = randomPaths(rng, nLinks)
				}
			}
		}
		sc.events = append(sc.events, ev)
	}
	// A final repair-and-reconnect pass so permanently-parked flows stay
	// a scenario choice, not a certainty.
	if rng.Intn(2) == 0 {
		last := TopoEvent{Time: 4.5, SetCaps: map[int]float64{}, Reroute: map[int][][]int{}}
		for l, c := range failed {
			last.SetCaps[l] = c
		}
		for c := 0; c < nConns; c++ {
			if rng.Intn(4) == 0 {
				last.Reroute[c] = randomPaths(rng, nLinks)
			}
		}
		sc.events = append(sc.events, last)
	}
	return sc
}

// requireIdentical fails unless both cores produced the same error state
// and bit-identical results.
func requireIdentical(t *testing.T, seed int64, got, want []ConnResult, gotErr, wantErr error) {
	t.Helper()
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("seed %d: SoA err %v, reference err %v", seed, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("seed %d: %d results vs %d", seed, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("seed %d: connection %d diverged:\n  soa: %+v\n  ref: %+v", seed, i, got[i], want[i])
		}
	}
}

func TestRunDifferentialStatic(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		sc := randomDiffScenario(seed, false)
		got, gotErr := sc.sim().Run()
		want, wantErr := sc.sim().runReference()
		requireIdentical(t, seed, got, want, gotErr, wantErr)
	}
}

func TestRunDifferentialChurn(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		sc := randomDiffScenario(seed, true)
		got, gotErr := sc.sim().Run()
		want, wantErr := sc.sim().runReference()
		requireIdentical(t, seed, got, want, gotErr, wantErr)
	}
}

// TestRunDifferentialParallelLinks exercises the parallel-link shape the
// churn engine produces for convertible fabrics: several identical link
// slots between the same switch pair, failed and repaired one slot at a
// time, with flows rerouted across the surviving siblings.
func TestRunDifferentialParallelLinks(t *testing.T) {
	// Slots 0..3 are parallel siblings A-B, slots 4..5 the access links.
	caps := []float64{10, 10, 10, 10, 10, 10}
	path := func(slot int) [][]int { return [][]int{{4, slot, 5}} }
	multi := func(slots ...int) [][]int {
		var ps [][]int
		for _, sl := range slots {
			ps = append(ps, []int{4, sl, 5})
		}
		return ps
	}
	specs := []ConnSpec{
		{Paths: multi(0, 1, 2, 3), Bits: 30},
		{Paths: path(0), Bits: 12, Arrival: 0.2},
		{Paths: path(1), Bits: 12, Arrival: 0.4},
		{Paths: multi(2, 3), Bits: 18, Arrival: 0.6, Weight: 2},
	}
	events := []TopoEvent{
		{Time: 0.5, SetCaps: map[int]float64{0: 0}},                           // fail slot 0
		{Time: 0.7, Reroute: map[int][][]int{0: multi(1, 2, 3), 1: path(1)}},  // reaction
		{Time: 1.0, SetCaps: map[int]float64{1: 0}},                           // fail slot 1
		{Time: 1.1, Reroute: map[int][][]int{0: multi(2, 3), 1: nil, 2: nil}}, // disconnects
		{Time: 1.6, SetCaps: map[int]float64{0: 10, 1: 10}},                   // repair both
		{Time: 1.7, Reroute: map[int][][]int{0: multi(0, 1, 2, 3), 1: path(0), 2: path(1)}},
	}
	sc := diffScenario{caps: caps, specs: specs, events: events, horizon: 20}
	got, gotErr := sc.sim().Run()
	want, wantErr := sc.sim().runReference()
	requireIdentical(t, 0, got, want, gotErr, wantErr)
	// The scenario must actually exercise churn machinery.
	if want[1].StallTime == 0 && want[2].StallTime == 0 {
		t.Fatalf("scenario lost its stall coverage: %+v", want)
	}
}

// TestRunDifferentialRerouteBeyondHorizon aims reroutes at the two
// connections the loop does not hold: connection 0, retired before its
// reroute (skipped, uncounted), and connection 3, which arrives after the
// horizon (both reroutes counted, reported unstarted). Run and RunStream
// must equal the reference, recorder stream included.
func TestRunDifferentialRerouteBeyondHorizon(t *testing.T) {
	sc := diffScenario{
		caps: []float64{10, 10},
		specs: []ConnSpec{
			{Paths: [][]int{{0}}, Bits: 1},                   // retires at 0.1
			{Paths: [][]int{{0}}, Bits: 4, Arrival: 0.2},     // retires at 0.6
			{Paths: [][]int{{0}, {1}}, Bits: 60, Arrival: 1}, // cut off by the horizon
			{Paths: [][]int{{1}}, Bits: 5, Arrival: 5},       // arrives after it
		},
		events: []TopoEvent{
			{Time: 0.5, Reroute: map[int][][]int{0: {{1}}, 3: {{0}}}},
			{Time: 1.5, Reroute: map[int][][]int{2: {{1}}, 3: {{0}, {1}}}},
		},
		horizon: 2,
	}
	want, wantEvents, wantErr := recorded(sc, func(sc diffScenario) ([]ConnResult, error) { return sc.sim().runReference() })
	got, gotEvents, gotErr := recorded(sc, func(sc diffScenario) ([]ConnResult, error) { return sc.sim().Run() })
	requireIdentical(t, 0, got, want, gotErr, wantErr)
	requireSameEvents(t, 0, gotEvents, wantEvents)
	got, gotEvents, gotErr = recorded(sc, func(sc diffScenario) ([]ConnResult, error) { return runStreamed(t, 0, sc) })
	requireIdentical(t, 0, got, want, gotErr, wantErr)
	requireSameEvents(t, 0, gotEvents, wantEvents)
	if want[0].Reroutes != 0 || want[2].Reroutes != 1 || want[3].Reroutes != 2 ||
		!math.IsInf(want[2].Finish, 1) || !math.IsInf(want[3].Finish, 1) || want[3].Start != 5 {
		t.Fatalf("scenario lost its coverage: %+v", want)
	}
}

// TestRunDifferentialRecorder replays one churn scenario through both
// cores with recording on: the flight-recorder streams (flow lifecycle
// plus per-event allocation rounds) must be identical event for event.
func TestRunDifferentialRecorder(t *testing.T) {
	sc := randomDiffScenario(7, true)
	record := func(run func(*Sim) ([]ConnResult, error)) []recorder.TrackSnapshot {
		rec := recorder.New(1 << 16)
		s := sc.sim()
		s.Rec = rec.Track("sim")
		if _, err := run(s); err != nil {
			t.Fatalf("run: %v", err)
		}
		return rec.Snapshot()
	}
	got := record((*Sim).Run)
	want := record((*Sim).runReference)
	if len(got) != 1 || len(want) != 1 {
		t.Fatalf("want one track each, got %d and %d", len(got), len(want))
	}
	if len(got[0].Events) != len(want[0].Events) {
		t.Fatalf("SoA emitted %d events, reference %d", len(got[0].Events), len(want[0].Events))
	}
	for i := range got[0].Events {
		if got[0].Events[i] != want[0].Events[i] {
			t.Fatalf("event %d diverged:\n  soa: %+v\n  ref: %+v", i, got[0].Events[i], want[0].Events[i])
		}
	}
}

// TestStaticRatesDifferential pins the exported StaticRates path (the
// §5.1 throughput experiments) to the reference allocate+ConnRates
// composition.
func TestStaticRatesDifferential(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		sc := randomDiffScenario(seed, false)
		for i := range sc.specs {
			if len(sc.specs[i].Paths) == 0 {
				sc.specs[i].Paths = [][]int{{0}}
			}
		}
		got, err := StaticRates(sc.caps, sc.specs, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ref := NewSim(sc.caps, sc.specs)
		ids := make([]int, len(sc.specs))
		paths := make([][][]int, len(sc.specs))
		for i, sp := range sc.specs {
			ids[i] = i
			paths[i] = sp.Paths
		}
		want, err := ref.allocateRef(sc.caps, ids, paths)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("seed %d: connection %d rate %.17g vs reference %.17g", seed, i, got[i], want[i])
			}
		}
	}
}

// TestMaxMinRatesDifferential pins the exported allocator entry point to
// the seed allocator bit-for-bit on the property suite's scenarios.
func TestMaxMinRatesDifferential(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		caps, subs := randomScenario(seed)
		got, err := MaxMinRates(caps, subs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want, err := maxMinRatesRef(caps, subs)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("seed %d: subflow %d rate %.17g vs reference %.17g", seed, i, got[i], want[i])
			}
		}
	}
}
