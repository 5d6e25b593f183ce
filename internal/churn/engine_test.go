package churn

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"flattree/internal/control"
	"flattree/internal/core"
	"flattree/internal/flowsim"
	"flattree/internal/parallel"
	"flattree/internal/routing"
	"flattree/internal/topo"
	"flattree/internal/traffic"
)

// parallelChurnTopo mirrors the routing package's parallel-link fabric:
// three edge switches, two aggs, parallel bundles e0-a0 and e2-a1, and a
// detour-only a0-a1 trunk no shortest path uses at k=1.
func parallelChurnTopo() *topo.Topology {
	tp := topo.NewTopology("parallel-churn")
	e0 := tp.AddNode(topo.Edge, 0)
	e1 := tp.AddNode(topo.Edge, 0)
	e2 := tp.AddNode(topo.Edge, 1)
	a0 := tp.AddNode(topo.Agg, 0)
	a1 := tp.AddNode(topo.Agg, 1)
	for _, pair := range [][2]int{{e0, a0}, {e0, a0}, {e1, a0}, {e1, a1}, {e2, a1}, {e2, a1}, {a0, a1}, {e0, a1}, {e2, a0}} {
		tp.AddLink(pair[0], pair[1])
	}
	for i := 0; i < 6; i++ {
		s := tp.AddNode(topo.Server, i/2)
		tp.AttachServer(s, []int{e0, e1, e2}[i/2])
	}
	return tp
}

// TestZeroAffectedFailureCostsDetection pins the corrected ruleTime: a
// failure that breaks zero installed paths (its whole switch adjacency is
// unused by the table) must cost exactly Detection — no whole-table
// delete+add — and trigger no reroute.
func TestZeroAffectedFailureCostsDetection(t *testing.T) {
	tp := parallelChurnTopo()
	d := control.TestbedDelayModel()
	d.Parallel = true
	e := &Engine{Topo: tp, K: 1, Detection: 0.05, Delay: d}

	servers := tp.Servers()
	var conns []Conn
	for _, pr := range traffic.Permutation(len(servers), 3) {
		conns = append(conns, Conn{Src: servers[pr.Src], Dst: servers[pr.Dst], Bits: 1})
	}
	// At k=1 no shortest path between edge switches crosses the a0-a1
	// trunk (nodes 3-4): every pair routes through a single agg.
	trace := Trace{{Time: 0.2, A: 3, B: 4}}
	plan, err := e.Compile(trace, conns)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Reactions) != 1 || plan.Reactions[0] != e.Detection {
		t.Fatalf("zero-affected failure reaction = %v, want exactly detection %v", plan.Reactions, e.Detection)
	}
	for _, ev := range plan.Events {
		if len(ev.Reroute) > 0 {
			t.Fatalf("zero-affected failure produced a reroute event: %+v", ev)
		}
	}
}

// TestDeltaPricingBelowFullTable verifies the bugfix direction: every
// event's delta-priced reaction is at most the old whole-table
// delete+add price, and at least one event is strictly cheaper.
func TestDeltaPricingBelowFullTable(t *testing.T) {
	tp := exampleTopo(t, core.ModeGlobal)
	e := exampleEngine(tp)
	servers := tp.Servers()
	var conns []Conn
	for _, pr := range traffic.Permutation(len(servers), 3) {
		conns = append(conns, Conn{Src: servers[pr.Src], Dst: servers[pr.Dst], Bits: 1})
	}
	trace := GenerateTrace(tp, 5, 1.0, 0.4, 13)
	plan, err := e.Compile(trace, conns)
	if err != nil {
		t.Fatal(err)
	}

	// Old pricing reference: whole-table delete of the previous rules plus
	// whole-table add of the new ones, bounded by the busiest switch.
	fullPrice := func(old, new map[int]int) float64 {
		var del, add int
		for _, n := range old {
			if n > del {
				del = n
			}
		}
		for _, n := range new {
			if n > add {
				add = n
			}
		}
		return float64(del)*e.Delay.PerRuleDelete + float64(add)*e.Delay.PerRuleAdd
	}
	failed := make(map[[2]int]int)
	prev := routing.BuildKShortest(tp, e.K).PrefixRulesPerSwitch()
	strictly := 0
	for i, ev := range trace {
		applyTraceEvent(failed, ev)
		pruned, _ := pruneWithMap(tp, failed)
		rules := routing.BuildKShortest(pruned, e.K).PrefixRulesPerSwitch()
		full := e.Detection + fullPrice(prev, rules)
		prev = rules
		if plan.Reactions[i] > full+1e-12 {
			t.Fatalf("event %d: delta-priced reaction %v exceeds whole-table price %v", i, plan.Reactions[i], full)
		}
		if plan.Reactions[i] < full-1e-12 {
			strictly++
		}
	}
	if strictly == 0 {
		t.Fatal("no event priced strictly below the whole-table reference")
	}
}

// applyTraceEvent updates the per-adjacency masked-link counter the way
// Compile does.
func applyTraceEvent(failed map[[2]int]int, ev Event) {
	key := pairKey(ev.A, ev.B)
	if ev.Repair {
		failed[key]--
		if failed[key] == 0 {
			delete(failed, key)
		}
		return
	}
	failed[key]++
}

// TestCompileMatchesFullRebuild is the engine-level differential: a
// reference compile that rebuilds the pruned table from scratch on every
// event must produce exactly the same simulator events as the
// incremental engine (same capacity drops, same reroute paths, same
// times), hence identical flowsim output.
func TestCompileMatchesFullRebuild(t *testing.T) {
	tp := exampleTopo(t, core.ModeClos)
	servers := tp.Servers()
	var conns []Conn
	for _, pr := range traffic.Permutation(len(servers), 3) {
		conns = append(conns, Conn{Src: servers[pr.Src], Dst: servers[pr.Dst], Bits: 10})
	}
	requireMatchesFullRebuild(t, exampleEngine(tp), GenerateTrace(tp, 6, 1.0, 0.4, 29), conns)
}

// TestCompileMatchesFullRebuildParallelBundle runs the same differential
// on a trace that masks both links of a parallel bundle: fail both,
// repair one, fail it again, then repair both. Which twin each event
// masks or restores is the masking rule (IncrementalTable.LinkBetween);
// the reference picks it from the per-adjacency count alone, so a rule
// that failed the highest surviving twin, or repaired the lowest masked
// one, moves a capacity event here.
func TestCompileMatchesFullRebuildParallelBundle(t *testing.T) {
	tp := parallelChurnTopo()
	e0, a0 := 0, 3 // the first parallel bundle: links 0 and 1
	servers := tp.Servers()
	var conns []Conn
	for _, src := range servers {
		for _, dst := range servers {
			if src != dst {
				conns = append(conns, Conn{Src: src, Dst: dst, Bits: 10})
			}
		}
	}
	trace := Trace{
		{Time: 0.1, A: e0, B: a0},
		{Time: 0.2, A: a0, B: e0},
		{Time: 0.3, A: e0, B: a0, Repair: true},
		{Time: 0.4, A: e0, B: a0},
		{Time: 0.5, A: a0, B: e0, Repair: true},
		{Time: 0.6, A: e0, B: a0, Repair: true},
	}
	plan := requireMatchesFullRebuild(t, exampleEngine(tp), trace, conns)
	// Coverage: both twins go down, and the failures break installed
	// paths, so the reroutes are compared too.
	masked := map[int]bool{}
	reroutes := 0
	for _, ev := range plan.Events {
		for slot, c := range ev.SetCaps {
			if c == 0 {
				masked[slot/2] = true
			}
		}
		if len(ev.Reroute) > 0 {
			reroutes++
		}
	}
	if !masked[0] || !masked[1] || reroutes == 0 {
		t.Fatalf("trace lost its coverage: masked links %v, %d reroute events", masked, reroutes)
	}
}

// requireMatchesFullRebuild compiles trace with e and fails unless the
// plan's simulator events equal the full-rebuild reference's. The
// reference is the pre-incremental engine body — full pruned rebuild and
// linkMap translation per event — reusing the plan's reaction delays
// (pricing is covered by the dedicated pricing tests). It masks an
// adjacency's links in ascending ID order and restores them in reverse.
func requireMatchesFullRebuild(t *testing.T, e *Engine, trace Trace, conns []Conn) *Plan {
	t.Helper()
	tp := e.Topo
	plan, err := e.Compile(trace, conns)
	if err != nil {
		t.Fatal(err)
	}
	base := routing.BuildKShortest(tp, e.K)
	installed := make([][][]int, len(conns))
	for i, c := range conns {
		installed[i] = directedServerPaths(base, nil, c.Src, c.Dst)
	}
	failed := make(map[[2]int]int)
	deadSlots := make(map[int]bool)
	linksByPair := make(map[[2]int][]int)
	for id, l := range tp.G.Links() {
		if tp.Nodes[l.A].Kind == topo.Server || tp.Nodes[l.B].Kind == topo.Server {
			continue
		}
		linksByPair[pairKey(l.A, l.B)] = append(linksByPair[pairKey(l.A, l.B)], id)
	}
	var refEvents []flowsim.TopoEvent
	for i, ev := range trace {
		key := pairKey(ev.A, ev.B)
		ids := linksByPair[key]
		var link int
		cap := 0.0
		if ev.Repair {
			failed[key]--
			if failed[key] == 0 {
				delete(failed, key)
			}
			link = ids[failed[key]]
			cap = tp.G.Link(link).Capacity
			delete(deadSlots, 2*link)
			delete(deadSlots, 2*link+1)
		} else {
			link = ids[failed[key]]
			failed[key]++
			deadSlots[2*link] = true
			deadSlots[2*link+1] = true
		}
		refEvents = append(refEvents, flowsim.TopoEvent{
			Time:    ev.Time,
			SetCaps: map[int]float64{2 * link: cap, 2*link + 1: cap},
		})
		pruned, linkMap := pruneWithMap(tp, failed)
		ref := routing.BuildKShortest(pruned, e.K)
		reroute := make(map[int][][]int)
		for ci, c := range conns {
			cur := installed[ci]
			if len(cur) > 0 && !crossesDead(cur, deadSlots) {
				continue
			}
			np := directedServerPaths(ref, linkMap, c.Src, c.Dst)
			if pathsEqual(cur, np) {
				continue
			}
			installed[ci] = np
			reroute[ci] = np
		}
		if len(reroute) > 0 {
			refEvents = append(refEvents, flowsim.TopoEvent{Time: ev.Time + plan.Reactions[i], Reroute: reroute})
		}
	}
	sort.SliceStable(refEvents, func(a, b int) bool { return refEvents[a].Time < refEvents[b].Time })
	if !reflect.DeepEqual(plan.Events, refEvents) {
		t.Fatal("incremental compile and full-rebuild reference produced different simulator events")
	}
	return plan
}

// TestCompileWorkerInvariance runs the full compile + simulation at one
// and at eight workers: plans and flowsim results must be identical.
func TestCompileWorkerInvariance(t *testing.T) {
	tp := exampleTopo(t, core.ModeGlobal)
	e := exampleEngine(tp)
	servers := tp.Servers()
	var conns []Conn
	for _, pr := range traffic.Permutation(len(servers), 3) {
		conns = append(conns, Conn{Src: servers[pr.Src], Dst: servers[pr.Dst], Bits: 15})
	}
	run := func(workers int) (*Plan, []flowsim.ConnResult) {
		t.Helper()
		parallel.SetDefaultWorkers(workers)
		defer parallel.SetDefaultWorkers(0)
		routing.PurgeCache()
		trace := GenerateTrace(tp, 5, 1.0, 0.5, 41)
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
		return plan, res
	}
	p1, r1 := run(1)
	p8, r8 := run(8)
	if !reflect.DeepEqual(p1, p8) {
		t.Fatal("plans differ between -workers=1 and -workers=8")
	}
	if !reflect.DeepEqual(r1, r8) {
		t.Fatal("simulation results differ between -workers=1 and -workers=8")
	}
	for _, r := range r1 {
		if math.IsNaN(r.Finish) {
			t.Fatal("NaN finish time")
		}
	}
}
