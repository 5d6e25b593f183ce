package routing

import (
	"fmt"
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
	it := NewIncremental(BuildKShortest(tp, k), nil)
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
			delta = it.repair(l)
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
			delta = it.fail(l)
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

// TestApplyMaskingRule pins the masking rule churn, flatd and the
// controller share: a fail takes the bundle's lowest-ID surviving link, a
// repair its highest-ID masked one, in either endpoint order, and a
// direction with no link left is an error.
func TestApplyMaskingRule(t *testing.T) {
	tp := parallelLinkTopo()
	it := NewIncremental(BuildKShortest(tp, 3), nil)
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
		link, _, err := it.Apply(st.a, st.b, st.repair)
		if st.expectExactErr != "" {
			if err == nil || err.Error() != st.expectExactErr {
				t.Fatalf("step %d: error = %v, want %q", i, err, st.expectExactErr)
			}
			continue
		}
		if err != nil || link != st.want {
			t.Fatalf("step %d: Apply = %d, %v; want link %d", i, link, err, st.want)
		}
	}
}

// randomRecord draws a failure record over tp's switch adjacencies plus
// pairs of switches with no adjacency, with counts from 1 to 3 — above
// the size of most bundles — in shuffled order and either endpoint
// order.
func randomRecord(tp *topo.Topology, rng *rand.Rand, n int) [][3]int {
	sw := tp.Switches()
	var record [][3]int
	for len(record) < n {
		a, b := sw[rng.Intn(len(sw))], sw[rng.Intn(len(sw))]
		if a != b {
			record = append(record, [3]int{a, b, 1 + rng.Intn(3)})
		}
	}
	for _, id := range switchLinks(tp) {
		if rng.Intn(8) == 0 {
			l := tp.G.Link(id)
			record = append(record, [3]int{l.B, l.A, 1 + rng.Intn(3)})
		}
	}
	rng.Shuffle(len(record), func(i, j int) { record[i], record[j] = record[j], record[i] })
	return record
}

// TestNewIncrementalRecordEqualsApply checks the batch constructor on
// seeded records, over-counted bundles and absent adjacencies included:
// NewIncremental(base, record) must equal a healthy table driven by one
// Apply per recorded failure — paths, rule counts, degraded pairs, the
// masked links and the record itself — and a rebuild on the topology
// pruned of the masked links.
func TestNewIncrementalRecordEqualsApply(t *testing.T) {
	for _, tc := range []struct {
		name string
		tp   *topo.Topology
		k    int
	}{
		{"mini-1-global", mini1Topo(t, core.ModeGlobal), 8},
		{"parallel-links", parallelLinkTopo(), 3},
	} {
		base := BuildKShortest(tc.tp, tc.k)
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			record := randomRecord(tc.tp, rng, 3)
			batch := NewIncremental(base, record)
			seq := NewIncremental(base, nil)
			want := map[[2]int]int{}
			for _, f := range record {
				want[[2]int{min(f[0], f[1]), max(f[0], f[1])}] += f[2]
				for n := 0; n < f[2]; n++ {
					if _, _, err := seq.Apply(f[0], f[1], false); err != nil {
						seq.failed[[2]int{min(f[0], f[1]), max(f[0], f[1])}]++ // dormant
					}
				}
			}
			step := fmt.Sprintf("%s seed %d", tc.name, seed)
			if !reflect.DeepEqual(batch.paths, seq.paths) {
				t.Fatalf("%s: batch paths differ from one Apply per failure", step)
			}
			if !reflect.DeepEqual(batch.RulesPerSwitch(), seq.RulesPerSwitch()) || batch.DegradedPairs() != seq.DegradedPairs() {
				t.Fatalf("%s: batch rules %v / %d degraded, sequential %v / %d", step,
					batch.RulesPerSwitch(), batch.DegradedPairs(), seq.RulesPerSwitch(), seq.DegradedPairs())
			}
			if !reflect.DeepEqual(batch.Masked(), seq.Masked()) || !reflect.DeepEqual(batch.Failed(), seq.Failed()) {
				t.Fatalf("%s: batch masks %v under %v, sequential %v under %v", step,
					batch.Masked(), batch.Failed(), seq.Masked(), seq.Failed())
			}
			got := map[[2]int]int{}
			for _, f := range batch.Failed() {
				if f[0] >= f[1] {
					t.Fatalf("%s: Failed lists %v high-first", step, f)
				}
				got[[2]int{f[0], f[1]}] = f[2]
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: record %v, want %v", step, got, want)
			}
			banned := map[int]bool{}
			for _, id := range batch.Masked() {
				banned[id] = true
			}
			if len(banned) == 0 {
				t.Fatalf("%s: record %v masks nothing", step, record)
			}
			requireTableEqualsRebuild(t, int(seed), batch, tc.tp, banned)
		}
	}
}

// TestApplyDormantRepair pins the repair of a dormant failure: a record
// counting more failures than its bundle has links masks the whole
// bundle, and repairing the surplus restores nothing — link -1, an empty
// delta — while the count drops. The next repair restores the highest
// masked link.
func TestApplyDormantRepair(t *testing.T) {
	tp := parallelLinkTopo()
	const e0, a0 = 0, 3 // joined by links 0 and 1
	it := NewIncremental(BuildKShortest(tp, 3), [][3]int{{a0, e0, 3}, {1, 2, 2}})
	if got := it.Masked(); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("masked %v, want [0 1]", got)
	}
	for _, st := range []struct {
		a, b   int
		link   int
		failed [][3]int
	}{
		{e0, a0, -1, [][3]int{{0, 3, 2}, {1, 2, 2}}},
		{1, 2, -1, [][3]int{{0, 3, 2}, {1, 2, 1}}},
		{a0, e0, 1, [][3]int{{0, 3, 1}, {1, 2, 1}}},
	} {
		link, delta, err := it.Apply(st.a, st.b, true)
		if err != nil || link != st.link {
			t.Fatalf("repair %d-%d = link %d, %v; want link %d", st.a, st.b, link, err, st.link)
		}
		if link < 0 && !delta.Empty() {
			t.Fatalf("dormant repair %d-%d returned delta %+v", st.a, st.b, delta)
		}
		if got := it.Failed(); !reflect.DeepEqual(got, st.failed) {
			t.Fatalf("after repair %d-%d record %v, want %v", st.a, st.b, got, st.failed)
		}
	}
	requireTableEqualsRebuild(t, 0, it, tp, map[int]bool{0: true})
}

// TestIncrementalZeroAffectedFailure pins the §4.3 no-op case: masking a
// link whose switch pair no installed path traverses yields an empty
// delta and leaves the table untouched.
func TestIncrementalZeroAffectedFailure(t *testing.T) {
	tp := parallelLinkTopo()
	it := NewIncremental(BuildKShortest(tp, 1), nil)
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
	delta := it.fail(unused)
	if !delta.Empty() {
		t.Fatalf("masking unused link %d produced delta %+v", unused, delta)
	}
	if it.DegradedPairs() != 0 {
		t.Fatalf("masking unused link degraded %d pairs", it.DegradedPairs())
	}
	requireTableEqualsRebuild(t, 0, it, tp, map[int]bool{unused: true})
	if d := it.repair(unused); !d.Empty() {
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
		it := NewIncremental(BuildKShortest(tp, 4), nil)
		links := switchLinks(tp)
		banned := map[int]bool{}
		var failed, deltas = []int{}, []RuleDelta{}
		for step := 0; step < 40; step++ {
			if len(failed) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(failed))
				l := failed[i]
				failed = append(failed[:i], failed[i+1:]...)
				delete(banned, l)
				deltas = append(deltas, it.repair(l))
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
			deltas = append(deltas, it.fail(l))
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
	it := NewIncremental(base, nil)
	links := switchLinks(tp)
	it.fail(links[0])
	it.fail(links[3])
	it.repair(links[0])
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
	it := NewIncremental(BuildKShortest(tp, k), nil)
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
			delta = it.repair(l)
			for _, pi := range few {
				if it.broken[pi] > 0 && !pathSetsEqual(old[pi], it.paths[pi]) {
					fewRecomputed++
				}
			}
		} else {
			banned[l] = true
			delta = it.fail(l)
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
