package flowsim

import (
	"math"
	"strings"
	"testing"
)

// The seed core silently accepted NaN and negative capacities — NaN
// remaining/weight quotients then propagated NaN rates and FCTs through
// every downstream table. These regressions pin the descriptive errors
// the core now returns instead.

func oneFlow() []ConnSpec {
	return []ConnSpec{{Paths: [][]int{{0}}, Bits: 1}}
}

func TestRunRejectsBadCaps(t *testing.T) {
	for _, bad := range []float64{math.NaN(), -1, math.Inf(-1)} {
		_, err := NewSim([]float64{10, bad}, oneFlow()).Run()
		if err == nil || !strings.Contains(err.Error(), "link 1 has capacity") {
			t.Fatalf("caps[1]=%v: want capacity error, got %v", bad, err)
		}
	}
	if _, err := NewSim([]float64{10, 10}, oneFlow()).Run(); err != nil {
		t.Fatalf("valid caps rejected: %v", err)
	}
}

func TestSetCapsRejectsBadValues(t *testing.T) {
	for _, bad := range []float64{math.NaN(), -2} {
		s := NewSim([]float64{10}, []ConnSpec{{Paths: [][]int{{0}}, Bits: 100}})
		s.Schedule([]TopoEvent{{Time: 0.5, SetCaps: map[int]float64{0: bad}}})
		_, err := s.Run()
		if err == nil || !strings.Contains(err.Error(), "sets link 0 capacity") {
			t.Fatalf("SetCaps=%v: want capacity error, got %v", bad, err)
		}
	}
	// Zero stays legal: it is how link failures blackhole a direction.
	s := NewSim([]float64{10, 10}, []ConnSpec{{Paths: [][]int{{0}, {1}}, Bits: 5}})
	s.Schedule([]TopoEvent{{Time: 0.1, SetCaps: map[int]float64{0: 0}}})
	if _, err := s.Run(); err != nil {
		t.Fatalf("SetCaps=0 rejected: %v", err)
	}
}

func TestMaxMinRatesRejectsBadCaps(t *testing.T) {
	subs := []Subflow{{Conn: 0, Links: []int{0}, Weight: 1}}
	for _, bad := range []float64{math.NaN(), -1} {
		if _, err := MaxMinRates([]float64{bad}, subs); err == nil {
			t.Fatalf("caps[0]=%v accepted", bad)
		}
	}
	if _, err := MaxMinRates([]float64{math.NaN()}, nil); err != nil {
		t.Fatalf("empty subflow set must not validate caps it never reads: %v", err)
	}
}

func TestStaticRatesRejectsBadCaps(t *testing.T) {
	if _, err := StaticRates([]float64{-5}, oneFlow(), 0); err == nil {
		t.Fatal("negative capacity accepted")
	}
}

func TestRunRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name string
		spec ConnSpec
		want string
	}{
		{"nan bits", ConnSpec{Paths: [][]int{{0}}, Bits: math.NaN()}, "has size"},
		{"nan weight", ConnSpec{Paths: [][]int{{0}}, Bits: 1, Weight: math.NaN()}, "has weight"},
		{"negative weight", ConnSpec{Paths: [][]int{{0}}, Bits: 1, Weight: -1}, "has weight"},
		{"nan arrival", ConnSpec{Paths: [][]int{{0}}, Bits: 1, Arrival: math.NaN()}, "has arrival"},
		{"inf arrival", ConnSpec{Paths: [][]int{{0}}, Bits: 1, Arrival: math.Inf(1)}, "has arrival"},
	}
	for _, tc := range cases {
		_, err := NewSim([]float64{10}, []ConnSpec{tc.spec}).Run()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: want %q error, got %v", tc.name, tc.want, err)
		}
	}
}

func TestMaxMinRatesRejectsNaNWeight(t *testing.T) {
	_, err := MaxMinRates([]float64{10}, []Subflow{{Links: []int{0}, Weight: math.NaN()}})
	if err == nil || !strings.Contains(err.Error(), "weight") {
		t.Fatalf("NaN subflow weight: got %v", err)
	}
}

func requireExactErr(t *testing.T, entry string, err error, want string) {
	t.Helper()
	got := ""
	if err != nil {
		got = err.Error()
	}
	if got != want {
		t.Fatalf("%s: error %q, want %q", entry, got, want)
	}
}

// TestRejectsSilentCorruption pins the exact error for each input that
// used to corrupt a run without one — a negative arrival counted time
// before t=0 into the FCT, a NaN event time blocked every later event, a
// NaN horizon or retry bound never fired, a negative one fell back to the
// default — at both entry points. Zero keeps its documented meaning: run
// to completion, default backoff, failed link.
func TestRejectsSilentCorruption(t *testing.T) {
	type testcase struct {
		name           string
		sc             diffScenario
		expectExactErr string
		expectFn       func(t *testing.T, res []ConnResult)
	}
	caps := []float64{10}
	flow := []ConnSpec{{Paths: [][]int{{0}}, Bits: 100}}
	cases := []testcase{
		{name: "negative arrival",
			sc:             diffScenario{caps: caps, specs: []ConnSpec{{Paths: [][]int{{0}}, Bits: 100, Arrival: -1}}},
			expectExactErr: "flowsim: connection 0 has arrival -1"},
		{name: "nan event time",
			sc: diffScenario{caps: caps, specs: flow,
				events: []TopoEvent{{Time: math.NaN()}, {Time: 1, SetCaps: map[int]float64{0: 0}}}},
			expectExactErr: "flowsim: event time NaN (want a number)"},
		{name: "nan horizon", sc: diffScenario{caps: caps, specs: flow, horizon: math.NaN()},
			expectExactErr: "flowsim: horizon NaN (want >= 0; zero runs to completion)"},
		{name: "negative horizon", sc: diffScenario{caps: caps, specs: flow, horizon: -1},
			expectExactErr: "flowsim: horizon -1 (want >= 0; zero runs to completion)"},
		{name: "nan retry base", sc: diffScenario{caps: caps, specs: flow, retryBase: math.NaN()},
			expectExactErr: "flowsim: retry bounds base NaN, max 0 (want >= 0; zero uses the default)"},
		{name: "negative retry base", sc: diffScenario{caps: caps, specs: flow, retryBase: -1},
			expectExactErr: "flowsim: retry bounds base -1, max 0 (want >= 0; zero uses the default)"},
		{name: "nan retry max", sc: diffScenario{caps: caps, specs: flow, retryBase: 0.5, retryMax: math.NaN()},
			expectExactErr: "flowsim: retry bounds base 0.5, max NaN (want >= 0; zero uses the default)"},
		{name: "negative retry max", sc: diffScenario{caps: caps, specs: flow, retryMax: -0.5},
			expectExactErr: "flowsim: retry bounds base 0, max -0.5 (want >= 0; zero uses the default)"},
		{name: "zero keeps its meaning",
			sc: diffScenario{caps: caps, specs: flow,
				events: []TopoEvent{{Time: 1, SetCaps: map[int]float64{0: 0}}, {Time: 2, SetCaps: map[int]float64{0: 10}}}},
			expectFn: func(t *testing.T, res []ConnResult) {
				// Stalled from 1 until the first default-backoff probe after
				// the repair at 2, then the remaining 90 bits at 10.
				if r := res[0]; r.StallTime <= 1 || r.StallTime > 1.3 || math.Abs(r.Finish-10-r.StallTime) > 1e-9 {
					t.Fatalf("result %+v: want a stall of about 1 s, then completion", r)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runRes, runErr := tc.sc.sim().Run()
			streamRes, streamErr := runStreamed(t, 0, tc.sc)
			requireExactErr(t, "Run", runErr, tc.expectExactErr)
			requireExactErr(t, "RunStream", streamErr, tc.expectExactErr)
			if tc.expectFn != nil {
				tc.expectFn(t, runRes)
				tc.expectFn(t, streamRes)
			}
		})
	}
}

// TestRerouteTargetErrors pins the errors for reroute targets outside the
// connection ids. Run knows its spec count. RunStream does not know its
// length, so it rejects only negative ids and holds any other until that
// connection arrives — here never, leaving the stream untouched.
func TestRerouteTargetErrors(t *testing.T) {
	cases := []struct {
		name                          string
		target                        int
		expectRunErr, expectStreamErr string
	}{
		{name: "beyond the specs", target: 5,
			expectRunErr: "flowsim: event at t=1 reroutes connection 5 of 1"},
		{name: "negative", target: -1,
			expectRunErr:    "flowsim: event at t=1 reroutes connection -1 of 1",
			expectStreamErr: "flowsim: event at t=1 reroutes connection -1 (stream ids count from 0)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := diffScenario{caps: []float64{10}, specs: []ConnSpec{{Paths: [][]int{{0}}, Bits: 100}},
				events: []TopoEvent{{Time: 1, Reroute: map[int][][]int{tc.target: {{0}}}}}}
			_, runErr := sc.sim().Run()
			streamRes, streamErr := runStreamed(t, 0, sc)
			requireExactErr(t, "Run", runErr, tc.expectRunErr)
			requireExactErr(t, "RunStream", streamErr, tc.expectStreamErr)
			if streamErr == nil && (streamRes[0].Finish != 10 || streamRes[0].Reroutes != 0) {
				t.Fatalf("stream result %+v: want finish 10, no reroutes", streamRes[0])
			}
		})
	}
}
