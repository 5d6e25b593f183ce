package churn

import (
	"fmt"
	"sort"

	"flattree/internal/control"
	"flattree/internal/flowsim"
	"flattree/internal/recorder"
	"flattree/internal/routing"
	"flattree/internal/telemetry"
	"flattree/internal/topo"
)

// Conn is one connection the engine routes and tracks across failures.
type Conn struct {
	// Src and Dst are server node IDs on the engine's topology.
	Src, Dst int
	// Bits, Arrival, Weight follow flowsim.ConnSpec.
	Bits, Arrival, Weight float64
}

// Engine compiles a churn trace against a healthy realized topology into
// the simulator's topology events: data-plane capacity drops at the
// failure instant, and a control-plane reroute after the modeled reaction
// delay.
type Engine struct {
	// Topo is the healthy realized topology; the simulation runs on its
	// directed link slots (routing.DirectedCaps order).
	Topo *topo.Topology
	// K is the number of surviving k-shortest paths installed per
	// connection at each reroute; zero defaults to 8, and Compile rejects
	// a negative K.
	K int
	// Detection is the failure-detection latency before the controller
	// starts updating rules, in seconds. Compile rejects NaN, infinite and
	// negative values here and in Delay's durations.
	Detection float64
	// Delay prices the rule updates with §4.3's conversion constants: the
	// reaction to an event costs Detection plus the rule-delete and
	// rule-add time of the table diff (driven by the busiest switch when
	// Delay.Parallel, by the total otherwise). No OCS term applies —
	// failure handling never reconfigures converters.
	Delay control.DelayModel

	// Rec, when set, receives the compilation's flight-recorder events:
	// one link_fail/link_repair per trace event at its sim time, the
	// control-plane reaction window, and the per-switch rule deltas the
	// incremental table installs. Concurrent engines must use distinct
	// tracks.
	Rec *recorder.Track
}

// Plan is a compiled churn schedule.
type Plan struct {
	// Specs are the connections routed on the healthy topology, ready for
	// flowsim.NewSim with routing.DirectedCaps of the engine's topology.
	Specs []flowsim.ConnSpec
	// Events are the capacity and reroute events for flowsim.Schedule.
	Events []flowsim.TopoEvent
	// Reactions records the modeled control-plane latency of each trace
	// event, in trace order.
	Reactions []float64
	// Deltas records the per-switch rule delta the incremental table
	// installed for each trace event, in trace order — the rule churn that
	// priced the matching Reactions entry.
	Deltas []routing.RuleDelta
}

// Compile routes the connections on the healthy topology and turns the
// trace into simulator events. Each trace event yields (1) an immediate
// capacity event masking or restoring the physical link, and (2) when any
// connection is affected, a reroute event at Time + reaction delay moving
// every connection whose installed paths are broken — stale paths are
// kept until then, modeling §4.3's controller. A connection whose
// endpoints are disconnected by the surviving fabric receives an empty
// path set and stalls in the simulator until a repair restores
// reachability. Reroutes reflect the failure state at their triggering
// event; a reaction landing after a later trace event is a deliberate
// approximation of a controller acting on slightly stale state.
func (e *Engine) Compile(trace Trace, conns []Conn) (*Plan, error) {
	if field, v, bad := control.BadDuration(e.Detection, e.Delay); bad {
		return nil, fmt.Errorf("churn: Engine.%s %v (want finite >= 0)", field, v)
	}
	if e.K < 0 {
		return nil, fmt.Errorf("churn: Engine.K %d (want >= 0; zero uses the default 8)", e.K)
	}
	t := e.Topo
	k := e.K
	if k == 0 {
		k = 8
	}
	for i, c := range conns {
		for _, nd := range []int{c.Src, c.Dst} {
			if nd < 0 || nd >= len(t.Nodes) || t.Nodes[nd].Kind != topo.Server {
				return nil, fmt.Errorf("churn: connection %d endpoint %d is not a server", i, nd)
			}
		}
	}
	table := routing.BuildKShortestCached(t, k)
	inc := routing.NewIncremental(table, nil)
	inc.SetRecorder(e.Rec)
	view := inc.View()
	specs := make([]flowsim.ConnSpec, len(conns))
	installed := make([][][]int, len(conns))
	for i, c := range conns {
		dp := view.ServerSlots(c.Src, c.Dst)
		if len(dp) == 0 {
			return nil, fmt.Errorf("churn: no path between servers %d and %d on the healthy topology", c.Src, c.Dst)
		}
		specs[i] = flowsim.ConnSpec{Paths: dp, Bits: c.Bits, Arrival: c.Arrival, Weight: c.Weight}
		installed[i] = dp
	}

	var events []flowsim.TopoEvent
	reactions := make([]float64, 0, len(trace))
	deltas := make([]routing.RuleDelta, 0, len(trace))
	for _, ev := range trace {
		// The table's masking rule picks the link, as it does for flatd,
		// and repairs only the pairs the event touches; the exact rule
		// delta prices the reaction — §4.3's "only the changed rules are
		// touched".
		inc.SetSimTime(ev.Time)
		link, delta, err := inc.Apply(ev.A, ev.B, ev.Repair)
		if err != nil {
			return nil, fmt.Errorf("churn: event at t=%v: %w", ev.Time, err)
		}
		cap := 0.0
		if ev.Repair {
			cap = t.G.Link(link).Capacity
		}
		events = append(events, flowsim.TopoEvent{
			Time:    ev.Time,
			SetCaps: map[int]float64{2 * link: cap, 2*link + 1: cap},
		})
		delay := ReactionTime(e.Detection, delta, e.Delay)
		reactions = append(reactions, delay)
		deltas = append(deltas, delta)
		e.Rec.Emit(recorder.Event{T: ev.Time, Kind: recorder.Reaction, V: delay,
			A: int64(delta.TotalDels()), B: int64(delta.TotalAdds())})

		reroute := make(map[int][][]int)
		for i, c := range conns {
			cur := installed[i]
			if len(cur) > 0 && !crossesMasked(cur, inc) {
				continue // stale but intact: flows keep working paths
			}
			np := view.ServerSlots(c.Src, c.Dst)
			if pathsEqual(cur, np) {
				continue
			}
			installed[i] = np
			reroute[i] = np
		}
		if len(reroute) > 0 {
			events = append(events, flowsim.TopoEvent{Time: ev.Time + delay, Reroute: reroute})
		}
		telemetry.C("churn_trace_events_total").Inc()
		telemetry.H("churn_reaction_seconds").Observe(delay)
	}
	sort.SliceStable(events, func(a, b int) bool { return events[a].Time < events[b].Time })
	return &Plan{Specs: specs, Events: events, Reactions: reactions, Deltas: deltas}, nil
}

// ReactionTime prices one link event's control-plane reaction: detection
// latency plus the rule-diff update time under the delay model, following
// control.ConvertPods semantics — only the rules the event deletes and
// adds are charged; parallel configuration is bounded by the busiest
// switch, sequential by the totals. An event that changes no rules costs
// nothing beyond detection. This is the quantity Engine.Compile records
// per event and flatd's /events/link returns, so the online and offline
// paths price identically by construction.
func ReactionTime(detection float64, delta routing.RuleDelta, d control.DelayModel) float64 {
	if d.Parallel {
		return detection + float64(delta.MaxDels())*d.PerRuleDelete + float64(delta.MaxAdds())*d.PerRuleAdd
	}
	return detection + float64(delta.TotalDels())*d.PerRuleDelete + float64(delta.TotalAdds())*d.PerRuleAdd
}

// crossesMasked reports whether any directed slot list crosses a link
// the table currently masks.
func crossesMasked(paths [][]int, inc *routing.IncrementalTable) bool {
	for _, p := range paths {
		for _, s := range p {
			if inc.Banned(s / 2) {
				return true
			}
		}
	}
	return false
}

// pathsEqual compares two directed path sets exactly.
func pathsEqual(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}
