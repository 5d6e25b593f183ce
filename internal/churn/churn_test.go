package churn

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"flattree/internal/control"
	"flattree/internal/core"
	"flattree/internal/flowsim"
	"flattree/internal/routing"
	"flattree/internal/topo"
	"flattree/internal/traffic"
)

func exampleTopo(t *testing.T, mode core.Mode) *topo.Topology {
	t.Helper()
	nw, err := core.ExampleNetwork()
	if err != nil {
		t.Fatal(err)
	}
	nw.SetMode(mode)
	return nw.Realize().Topo
}

func exampleEngine(tp *topo.Topology) *Engine {
	d := control.TestbedDelayModel()
	d.Parallel = true
	return &Engine{Topo: tp, K: 4, Detection: 0.01, Delay: d}
}

func TestGenerateTraceDeterministic(t *testing.T) {
	tp := exampleTopo(t, core.ModeClos)
	a := GenerateTrace(tp, 5, 2.0, 0.5, 7)
	b := GenerateTrace(tp, 5, 2.0, 0.5, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different traces")
	}
	if len(a) != 10 {
		t.Fatalf("trace length = %d, want 10 (5 failures + 5 repairs)", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i].Time < a[i-1].Time {
			t.Fatal("trace not time-ordered")
		}
	}
	fails := map[[2]int]float64{}
	for _, ev := range a {
		if tp.Nodes[ev.A].Kind == topo.Server || tp.Nodes[ev.B].Kind == topo.Server {
			t.Fatalf("trace touches a server uplink: %+v", ev)
		}
		k := pairKey(ev.A, ev.B)
		if !ev.Repair {
			fails[k] = ev.Time
			continue
		}
		ft, ok := fails[k]
		if !ok {
			t.Fatalf("repair without failure: %+v", ev)
		}
		if math.Abs(ev.Time-ft-0.5) > 1e-9 {
			t.Fatalf("repair at %v for failure at %v, want MTTR 0.5", ev.Time, ft)
		}
	}
	if c := GenerateTrace(tp, 5, 2.0, 0.5, 8); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestCompileReactionDelay verifies the §4.3 reaction model: the capacity
// drop lands at the failure instant, while the reroute trails it by
// detection + rule-update latency — never instantaneous.
func TestCompileReactionDelay(t *testing.T) {
	tp := exampleTopo(t, core.ModeGlobal)
	e := exampleEngine(tp)

	servers := tp.Servers()
	var conns []Conn
	for _, pr := range traffic.Permutation(len(servers), 3) {
		conns = append(conns, Conn{Src: servers[pr.Src], Dst: servers[pr.Dst], Bits: 1})
	}
	// Fail a link that some installed path uses, so at least one
	// connection must be rerouted.
	table := routing.BuildKShortestCached(tp, e.K)
	p := table.ServerPaths(conns[0].Src, conns[0].Dst)[0]
	li := p.Links[1] // a switch-switch hop (0 is the server uplink)
	l := tp.G.Link(li)
	trace := Trace{{Time: 0.5, A: l.A, B: l.B}}

	plan, err := e.Compile(trace, conns)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Reactions) != 1 || plan.Reactions[0] <= e.Detection {
		t.Fatalf("reaction delay %v, want > detection %v", plan.Reactions, e.Detection)
	}
	var capEv, rerouteEv *flowsim.TopoEvent
	for i := range plan.Events {
		ev := &plan.Events[i]
		if len(ev.SetCaps) > 0 {
			capEv = ev
		}
		if len(ev.Reroute) > 0 {
			rerouteEv = ev
		}
	}
	if capEv == nil || capEv.Time != 0.5 {
		t.Fatalf("capacity event = %+v, want at t=0.5", capEv)
	}
	for slot, c := range capEv.SetCaps {
		if c != 0 || slot/2 != li {
			t.Fatalf("capacity event masks slot %d to %v, want link %d to 0", slot, c, li)
		}
	}
	if rerouteEv == nil {
		t.Fatal("no reroute event for an affected connection")
	}
	if got, want := rerouteEv.Time, 0.5+plan.Reactions[0]; math.Abs(got-want) > 1e-12 {
		t.Fatalf("reroute at %v, want failure + reaction = %v", got, want)
	}
	// Rerouted paths avoid the dead link's slots.
	for c, paths := range rerouteEv.Reroute {
		for _, dp := range paths {
			for _, slot := range dp {
				if slot/2 == li {
					t.Fatalf("connection %d rerouted onto the dead link", c)
				}
			}
		}
	}
}

// TestChurnEndToEnd compiles a generated trace and runs the simulation:
// the run completes without error, at least one flow reroutes, and two
// identical runs produce identical results.
func TestChurnEndToEnd(t *testing.T) {
	tp := exampleTopo(t, core.ModeClos)
	e := exampleEngine(tp)
	servers := tp.Servers()
	var conns []Conn
	for _, pr := range traffic.Permutation(len(servers), 3) {
		conns = append(conns, Conn{Src: servers[pr.Src], Dst: servers[pr.Dst], Bits: 20})
	}
	run := func() []flowsim.ConnResult {
		t.Helper()
		trace := GenerateTrace(tp, 4, 1.0, 0.4, 11)
		plan, err := e.Compile(trace, conns)
		if err != nil {
			t.Fatal(err)
		}
		sim := flowsim.NewSim(routing.DirectedCaps(tp.G), plan.Specs)
		sim.Schedule(plan.Events)
		sim.Horizon = 60
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run()
	reroutes, done := 0, 0
	for _, r := range a {
		reroutes += r.Reroutes
		if !math.IsInf(r.Finish, 1) {
			done++
		}
	}
	if reroutes == 0 {
		t.Fatal("no connection rerouted under a 4-failure trace")
	}
	if done == 0 {
		t.Fatal("no connection completed")
	}
	if b := run(); !reflect.DeepEqual(a, b) {
		t.Fatal("two identical churn runs differ")
	}
}

// TestChurnDisconnection cuts every switch link of one edge switch with no
// repair: its servers' flows must stall (reported, not fatal) while the
// rest of the fabric completes.
func TestChurnDisconnection(t *testing.T) {
	tp := exampleTopo(t, core.ModeClos)
	e := exampleEngine(tp)
	edge := tp.Edges()[0]
	var trace Trace
	for _, id := range tp.G.Incident(edge) {
		other := tp.G.Link(id).Other(edge)
		if tp.Nodes[other].Kind == topo.Server {
			continue
		}
		trace = append(trace, Event{Time: 0.2, A: edge, B: other})
	}
	trace.Sort()
	if len(trace) == 0 {
		t.Fatal("edge switch has no switch links")
	}

	servers := tp.Servers()
	var conns []Conn
	for _, pr := range traffic.Permutation(len(servers), 3) {
		conns = append(conns, Conn{Src: servers[pr.Src], Dst: servers[pr.Dst], Bits: 5})
	}
	plan, err := e.Compile(trace, conns)
	if err != nil {
		t.Fatal(err)
	}
	sim := flowsim.NewSim(routing.DirectedCaps(tp.G), plan.Specs)
	sim.Schedule(plan.Events)
	sim.Horizon = 30
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	stalledUnfinished, done := 0, 0
	for i, r := range res {
		onEdge := tp.AttachedSwitch(conns[i].Src) == edge || tp.AttachedSwitch(conns[i].Dst) == edge
		if onEdge {
			if math.IsInf(r.Finish, 1) {
				if r.StallTime <= 0 {
					t.Fatalf("conn %d disconnected but no stall time: %+v", i, r)
				}
				stalledUnfinished++
			}
			continue
		}
		if !math.IsInf(r.Finish, 1) {
			done++
		}
	}
	if stalledUnfinished == 0 {
		t.Fatal("no flow on the severed edge switch stalled")
	}
	if done == 0 {
		t.Fatal("no flow outside the severed edge switch completed")
	}
}

// TestCompileErrors pins the engine's validation errors. A trace event
// takes its link from the route table's masking rule, so its error is the
// table's, stamped with the event time. A NaN, infinite or negative
// reaction duration fails before any routing, with flatd's check
// (control.BadDuration): NaN would surface only as flowsim's event-time
// error, and a negative detection landed reroutes before t=0.
// TestCompileZeroKIsDefault pins the other side of the negative-K
// rejection: K = 0 installs the documented default of 8 paths.
func TestCompileZeroKIsDefault(t *testing.T) {
	tp := exampleTopo(t, core.ModeClos)
	servers := tp.Servers()
	conns := []Conn{{Src: servers[0], Dst: servers[len(servers)-1], Bits: 1}}
	var paths [2][][]int
	for i, k := range []int{0, 8} {
		e := exampleEngine(tp)
		e.K = k
		plan, err := e.Compile(nil, conns)
		if err != nil {
			t.Fatal(err)
		}
		paths[i] = plan.Specs[0].Paths
	}
	if !reflect.DeepEqual(paths[0], paths[1]) || len(paths[0]) != 8 {
		t.Fatalf("K = 0 installed %d paths %v, K = 8 installed %d %v", len(paths[0]), paths[0], len(paths[1]), paths[1])
	}
}

func TestCompileErrors(t *testing.T) {
	tp := exampleTopo(t, core.ModeClos)
	servers := tp.Servers()
	conns := []Conn{{Src: servers[0], Dst: servers[1], Bits: 1}}
	edge, agg := tp.Edges()[0], tp.Aggs()[0]
	// Failing every link of the edge-agg bundle, then one more.
	var exhaust Trace
	for _, id := range tp.G.Incident(edge) {
		if tp.G.Link(id).Other(edge) == agg {
			exhaust = append(exhaust, Event{Time: float64(len(exhaust)), A: edge, B: agg})
		}
	}
	exhaust = append(exhaust, Event{Time: float64(len(exhaust)), A: agg, B: edge})
	cases := []struct {
		name           string
		engine         func(e *Engine)
		trace          Trace
		conns          []Conn
		expectExactErr string
	}{
		{name: "nan detection", engine: func(e *Engine) { e.Detection = math.NaN() },
			expectExactErr: "churn: Engine.Detection NaN (want finite >= 0)"},
		{name: "infinite detection", engine: func(e *Engine) { e.Detection = math.Inf(1) },
			expectExactErr: "churn: Engine.Detection +Inf (want finite >= 0)"},
		{name: "negative detection", engine: func(e *Engine) { e.Detection = -1 },
			expectExactErr: "churn: Engine.Detection -1 (want finite >= 0)"},
		{name: "infinite ocs reconfig", engine: func(e *Engine) { e.Delay.OCSReconfig = math.Inf(1) },
			expectExactErr: "churn: Engine.Delay.OCSReconfig +Inf (want finite >= 0)"},
		{name: "negative rule delete", engine: func(e *Engine) { e.Delay.PerRuleDelete = -0.001 },
			expectExactErr: "churn: Engine.Delay.PerRuleDelete -0.001 (want finite >= 0)"},
		{name: "nan rule add", engine: func(e *Engine) { e.Delay.PerRuleAdd = math.NaN() },
			expectExactErr: "churn: Engine.Delay.PerRuleAdd NaN (want finite >= 0)"},
		{name: "negative infinite ramp", engine: func(e *Engine) { e.Delay.Ramp = math.Inf(-1) },
			expectExactErr: "churn: Engine.Delay.Ramp -Inf (want finite >= 0)"},
		{name: "negative k", engine: func(e *Engine) { e.K = -3 },
			expectExactErr: "churn: Engine.K -3 (want >= 0; zero uses the default 8)"},
		{name: "non-server endpoint", conns: []Conn{{Src: 0, Dst: 1, Bits: 1}},
			expectExactErr: "churn: connection 0 endpoint 0 is not a server"},
		{name: "repair of healthy link", trace: Trace{{Time: 0.5, A: edge, B: agg, Repair: true}},
			expectExactErr: fmt.Sprintf("churn: event at t=0.5: routing: no masked link between %d and %d", edge, agg)},
		{name: "server endpoint", trace: Trace{{Time: 1, A: servers[0], B: servers[1]}},
			expectExactErr: fmt.Sprintf("churn: event at t=1: routing: node %d is a server; server uplinks do not fail", servers[0])},
		{name: "no adjacency", trace: Trace{{Time: 2, A: edge, B: tp.Edges()[1]}},
			expectExactErr: fmt.Sprintf("churn: event at t=2: routing: no link between %d and %d", edge, tp.Edges()[1])},
		{name: "node out of range", trace: Trace{{Time: 3, A: edge, B: len(tp.Nodes)}},
			expectExactErr: fmt.Sprintf("churn: event at t=3: routing: node %d out of range [0, %d)", len(tp.Nodes), len(tp.Nodes))},
		{name: "no surviving link", trace: exhaust,
			expectExactErr: fmt.Sprintf("churn: event at t=%d: routing: no surviving link between %d and %d", len(exhaust)-1, agg, edge)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.conns == nil {
				tc.conns = conns
			}
			e := exampleEngine(tp)
			if tc.engine != nil {
				tc.engine(e)
			}
			_, err := e.Compile(tc.trace, tc.conns)
			if err == nil || err.Error() != tc.expectExactErr {
				t.Fatalf("error = %v, want %q", err, tc.expectExactErr)
			}
		})
	}
}
