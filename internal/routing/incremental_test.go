package routing

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"flattree/internal/core"
	"flattree/internal/parallel"
	"flattree/internal/telemetry"
	"flattree/internal/topo"
)

// pruneBanned rebuilds the topology without the banned links (preserving
// node IDs and relative link order, servers re-attached last) and returns
// the pruned-link-ID -> original-link-ID map — the from-scratch reference
// the incremental table must match after every event.
func pruneBanned(t *topo.Topology, banned map[int]bool) (*topo.Topology, []int) {
	out := topo.NewTopology(t.Name + "-pruned")
	out.SetNumPods(t.NumPods())
	for _, n := range t.Nodes {
		id := out.AddNode(n.Kind, n.Pod)
		out.Nodes[id].LocalIndex = n.LocalIndex
	}
	var linkMap []int
	for id, l := range t.G.Links() {
		if t.Nodes[l.A].Kind == topo.Server || t.Nodes[l.B].Kind == topo.Server {
			continue
		}
		if banned[id] {
			continue
		}
		out.AddLink(l.A, l.B)
		linkMap = append(linkMap, id)
	}
	for _, s := range t.Servers() {
		out.AttachServer(s, t.AttachedSwitch(s))
		linkMap = append(linkMap, t.G.Incident(s)[0])
	}
	return out, linkMap
}

// requireTableEqualsRebuild asserts the incremental view is identical —
// same pairs, same paths, same order — to BuildKShortest on the pruned
// topology, with pruned link IDs translated back through linkMap.
func requireTableEqualsRebuild(t *testing.T, step int, it *IncrementalTable, tp *topo.Topology, banned map[int]bool) {
	t.Helper()
	pruned, linkMap := pruneBanned(tp, banned)
	ref := BuildKShortest(pruned, it.base.K)
	view := it.View()
	if len(ref.Paths) != len(view.Paths) {
		t.Fatalf("step %d: %d pairs incrementally, %d from scratch", step, len(view.Paths), len(ref.Paths))
	}
	for pk, refPaths := range ref.Paths {
		got := view.Paths[pk]
		if len(got) != len(refPaths) {
			t.Fatalf("step %d pair %v: %d paths incrementally, %d from scratch", step, pk, len(got), len(refPaths))
		}
		for i := range refPaths {
			if !reflect.DeepEqual(got[i].Nodes, refPaths[i].Nodes) {
				t.Fatalf("step %d pair %v path %d nodes = %v, from scratch %v", step, pk, i, got[i].Nodes, refPaths[i].Nodes)
			}
			for j, id := range refPaths[i].Links {
				if got[i].Links[j] != linkMap[id] {
					t.Fatalf("step %d pair %v path %d link %d = %d, from scratch %d", step, pk, i, j, got[i].Links[j], linkMap[id])
				}
			}
		}
	}
	if want, got := ref.PrefixRulesPerSwitch(), it.RulesPerSwitch(); !reflect.DeepEqual(want, got) {
		t.Fatalf("step %d: incremental rule counts %v, from scratch %v", step, got, want)
	}
}

// requireDeltaReconciles asserts that an event's delta transforms the
// rule state before the event, prev, into the table's rule state after it
// exactly.
func requireDeltaReconciles(t *testing.T, step int, it *IncrementalTable, prev map[int]int, delta RuleDelta) {
	t.Helper()
	for sw, add := range delta.Adds {
		prev[sw] += add
	}
	for sw, del := range delta.Dels {
		prev[sw] -= del
		if prev[sw] == 0 {
			delete(prev, sw)
		}
	}
	if got := it.RulesPerSwitch(); !reflect.DeepEqual(prev, got) {
		t.Fatalf("step %d: delta does not reconcile rule states: applied %v, actual %v", step, prev, got)
	}
}

// switchLinks returns the IDs of switch-switch links (server uplinks
// never fail).
func switchLinks(tp *topo.Topology) []int {
	var out []int
	for id, l := range tp.G.Links() {
		if tp.Nodes[l.A].Kind == topo.Server || tp.Nodes[l.B].Kind == topo.Server {
			continue
		}
		out = append(out, id)
	}
	return out
}

// driveTrace applies a seeded random fail/repair sequence of n events and
// checks the differential property after every one. Partitions are
// allowed and exercised.
func driveTrace(t *testing.T, tp *topo.Topology, k, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	it := NewIncremental(BuildKShortest(tp, k))
	links := switchLinks(tp)
	banned := map[int]bool{}
	var failed []int
	for step := 0; step < n; step++ {
		repair := len(failed) > 0 && (rng.Intn(3) == 0 || len(failed) == len(links))
		prevRules := it.RulesPerSwitch()
		var delta RuleDelta
		if repair {
			i := rng.Intn(len(failed))
			l := failed[i]
			failed = append(failed[:i], failed[i+1:]...)
			delete(banned, l)
			delta = it.Repair(l)
		} else {
			var alive []int
			for _, l := range links {
				if !banned[l] {
					alive = append(alive, l)
				}
			}
			l := alive[rng.Intn(len(alive))]
			banned[l] = true
			failed = append(failed, l)
			delta = it.Fail(l)
		}
		requireDeltaReconciles(t, step, it, prevRules, delta)
		requireTableEqualsRebuild(t, step, it, tp, banned)
	}
	if len(failed) == 0 && it.DegradedPairs() != 0 {
		t.Fatalf("no links masked but %d pairs degraded", it.DegradedPairs())
	}
}

// TestIncrementalDifferentialClos runs a 60-event random trace on the
// Clos-mode cache topology, checking incremental-vs-rebuild equality
// after every event.
func TestIncrementalDifferentialClos(t *testing.T) {
	tp := cacheTestTopo(t)
	driveTrace(t, tp, 4, 60, 17)
}

// parallelLinkTopo is a small fabric with parallel switch-switch links —
// the shape flat-tree converter rewiring creates — so masking one of a
// bundle leaves its twin carrying traffic.
func parallelLinkTopo() *topo.Topology {
	tp := topo.NewTopology("parallel-links")
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

// TestIncrementalDifferentialParallelLinks drives a long trace over a
// fabric with parallel links, including full partitions of an edge
// switch.
func TestIncrementalDifferentialParallelLinks(t *testing.T) {
	tp := parallelLinkTopo()
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
	driveTrace(t, tp, 3, 250, 5)
}

// TestLinkBetweenMaskingRule pins the masking rule the churn engine and
// flatd share: a fail takes the bundle's lowest-ID surviving link, a
// repair its highest-ID masked one, in either endpoint order, and a
// direction with no link left is an error. A link masked out of that
// order by a direct Fail leaves the rule as it is.
func TestLinkBetweenMaskingRule(t *testing.T) {
	tp := parallelLinkTopo()
	it := NewIncremental(BuildKShortest(tp, 3))
	const e0, a0 = 0, 3 // joined by links 0 and 1
	steps := []struct {
		a, b           int
		repair         bool
		want           int
		expectExactErr string
	}{
		{a: e0, b: a0, want: 0},
		{a: a0, b: e0, want: 1},
		{a: e0, b: a0, expectExactErr: "routing: no surviving link between 0 and 3"},
		{a: a0, b: e0, repair: true, want: 1},
		{a: e0, b: a0, repair: true, want: 0},
		{a: a0, b: e0, repair: true, expectExactErr: "routing: no masked link between 3 and 0"},
	}
	for i, st := range steps {
		link, err := it.LinkBetween(st.a, st.b, st.repair)
		if st.expectExactErr != "" {
			if err == nil || err.Error() != st.expectExactErr {
				t.Fatalf("step %d: error = %v, want %q", i, err, st.expectExactErr)
			}
			continue
		}
		if err != nil || link != st.want {
			t.Fatalf("step %d: LinkBetween = %d, %v; want link %d", i, link, err, st.want)
		}
		if st.repair {
			it.Repair(link)
		} else {
			it.Fail(link)
		}
	}
	it.Fail(1)
	if link, err := it.LinkBetween(e0, a0, false); err != nil || link != 0 {
		t.Fatalf("fail with link 1 masked directly = %d, %v; want link 0", link, err)
	}
	if link, err := it.LinkBetween(e0, a0, true); err != nil || link != 1 {
		t.Fatalf("repair with link 1 masked directly = %d, %v; want link 1", link, err)
	}
}

// TestIncrementalZeroAffectedFailure pins the §4.3 no-op case: masking a
// link whose switch pair no installed path traverses yields an empty
// delta and leaves the table untouched.
func TestIncrementalZeroAffectedFailure(t *testing.T) {
	tp := parallelLinkTopo()
	it := NewIncremental(BuildKShortest(tp, 1))
	// With k=1 each pair installs one shortest path; detour-only bundles
	// like a0-a1 carry no installed path.
	var unused int = -1
	for _, l := range switchLinks(tp) {
		if len(it.curUse[it.bundle[l]]) == 0 {
			unused = l
			break
		}
	}
	if unused < 0 {
		t.Fatal("no bundle-unused link at k=1")
	}
	delta := it.Fail(unused)
	if !delta.Empty() {
		t.Fatalf("masking unused link %d produced delta %+v", unused, delta)
	}
	if it.DegradedPairs() != 0 {
		t.Fatalf("masking unused link degraded %d pairs", it.DegradedPairs())
	}
	requireTableEqualsRebuild(t, 0, it, tp, map[int]bool{unused: true})
	if d := it.Repair(unused); !d.Empty() {
		t.Fatalf("repairing unused link produced delta %+v", d)
	}
}

// TestIncrementalWorkerInvariance replays the same trace at one and at
// eight workers: every delta and the final table must be identical.
func TestIncrementalWorkerInvariance(t *testing.T) {
	tp := cacheTestTopo(t)
	run := func(workers int) ([]RuleDelta, map[int]int) {
		parallel.SetDefaultWorkers(workers)
		defer parallel.SetDefaultWorkers(0)
		rng := rand.New(rand.NewSource(23))
		it := NewIncremental(BuildKShortest(tp, 4))
		links := switchLinks(tp)
		banned := map[int]bool{}
		var failed, deltas = []int{}, []RuleDelta{}
		for step := 0; step < 40; step++ {
			if len(failed) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(failed))
				l := failed[i]
				failed = append(failed[:i], failed[i+1:]...)
				delete(banned, l)
				deltas = append(deltas, it.Repair(l))
				continue
			}
			var alive []int
			for _, l := range links {
				if !banned[l] {
					alive = append(alive, l)
				}
			}
			l := alive[rng.Intn(len(alive))]
			banned[l] = true
			failed = append(failed, l)
			deltas = append(deltas, it.Fail(l))
		}
		return deltas, it.RulesPerSwitch()
	}
	d1, r1 := run(1)
	d8, r8 := run(8)
	if !reflect.DeepEqual(d1, d8) {
		t.Fatal("deltas differ between -workers=1 and -workers=8")
	}
	if !reflect.DeepEqual(r1, r8) {
		t.Fatal("rule state differs between -workers=1 and -workers=8")
	}
}

// TestIncrementalDoesNotMutateBaseline wraps a table, churns it, and
// verifies the wrapped baseline still equals a fresh build — cached
// tables must be safe to wrap.
func TestIncrementalDoesNotMutateBaseline(t *testing.T) {
	tp := cacheTestTopo(t)
	base := BuildKShortest(tp, 4)
	it := NewIncremental(base)
	links := switchLinks(tp)
	it.Fail(links[0])
	it.Fail(links[3])
	it.Repair(links[0])
	fresh := BuildKShortest(tp, 4)
	if len(base.Paths) != len(fresh.Paths) {
		t.Fatalf("baseline pair count changed: %d vs %d", len(base.Paths), len(fresh.Paths))
	}
	for pk, want := range fresh.Paths {
		if !reflect.DeepEqual(base.Paths[pk], want) {
			t.Fatalf("baseline pair %v mutated", pk)
		}
	}
}

// TestIncrementalRepairBoundGlobal drives overlapping failures on mini-1
// in global mode — 48 ingress switches, 2,256 ordered pairs, k=8 — with
// one switch link given a parallel twin. For most of its length the
// seeded trace holds three to six links masked at once, interleaving
// fails and repairs, so repairs leave pairs degraded and the distance
// bound decides whether to re-run Yen for them. It masks the twin bundle
// one link at a time and cuts one switch off entirely, so some degraded
// pairs hold fewer than k paths (zero) when a repair comes. After every event the table must
// equal a from-scratch rebuild; over the trace the bound must have kept
// pairs without Yen, and pairs with fewer than k paths must have been
// recomputed.
func TestIncrementalRepairBoundGlobal(t *testing.T) {
	reg := telemetry.Enable()
	defer telemetry.Disable()
	const k = 8
	tp := mini1Topo(t, core.ModeGlobal)
	links := switchLinks(tp)
	twin := tp.AddLink(tp.G.Link(links[0]).A, tp.G.Link(links[0]).B)
	links = append(links, twin)
	it := NewIncremental(BuildKShortest(tp, k))
	if len(it.base.Ingress) != 48 || len(it.paths) != 2256 {
		t.Fatalf("%d ingress switches, %d pairs; want 48 and 2256", len(it.base.Ingress), len(it.paths))
	}

	// cut is the switch with the fewest switch links; failing all of
	// them partitions it from the fabric.
	var cut []int
	for _, sw := range tp.Switches() {
		var own []int
		for _, id := range tp.G.Incident(sw) {
			if tp.Nodes[tp.G.Link(id).Other(sw)].Kind != topo.Server {
				own = append(own, id)
			}
		}
		if cut == nil || len(own) < len(cut) {
			cut = own
		}
	}

	rng := rand.New(rand.NewSource(31))
	banned := map[int]bool{}
	fewRecomputed := 0
	step := 0
	toggle := func(l int) {
		t.Helper()
		prevRules := it.RulesPerSwitch()
		var delta RuleDelta
		if banned[l] {
			var few []int
			for pi, n := range it.broken {
				if n > 0 && len(it.paths[pi]) < k {
					few = append(few, pi)
				}
			}
			old := slices.Clone(it.paths)
			delete(banned, l)
			delta = it.Repair(l)
			for _, pi := range few {
				if it.broken[pi] > 0 && !pathSetsEqual(old[pi], it.paths[pi]) {
					fewRecomputed++
				}
			}
		} else {
			banned[l] = true
			delta = it.Fail(l)
		}
		requireDeltaReconciles(t, step, it, prevRules, delta)
		requireTableEqualsRebuild(t, step, it, tp, banned)
		step++
	}
	randomLink := func(masked bool) int {
		var pool []int
		for _, l := range links {
			if banned[l] == masked {
				pool = append(pool, l)
			}
		}
		return pool[rng.Intn(len(pool))]
	}

	// Overlap the twin bundle with two other failures, masking and
	// restoring its links one at a time.
	toggle(links[0])
	toggle(randomLink(false))
	toggle(randomLink(false))
	toggle(twin)
	toggle(links[0])
	toggle(randomLink(false))
	toggle(twin)
	// Cut the switch off with the others still masked, then reconnect it
	// one link at a time among random fails.
	for _, l := range cut {
		if !banned[l] {
			toggle(l)
		}
	}
	for _, l := range cut {
		toggle(l)
		toggle(randomLink(false))
	}
	// A random walk holding three to six links masked.
	for i := 0; i < 24; i++ {
		n := len(banned)
		toggle(randomLink(n > 3 && (n >= 6 || rng.Intn(2) == 0)))
	}

	if n := reg.Counter("routing_repair_pruned_pairs_total").Value(); n == 0 {
		t.Fatal("the distance bound kept no pair: routing_repair_pruned_pairs_total is 0")
	} else {
		t.Logf("%d events: bound kept %d pairs; %d pairs restored or recomputed", step, n, reg.Counter("routing_dirty_pairs_total").Value())
	}
	if fewRecomputed == 0 {
		t.Fatal("no degraded pair with fewer than k paths changed on a repair")
	}
}
