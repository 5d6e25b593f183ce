package routing

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"flattree/internal/graph"
	"flattree/internal/parallel"
	"flattree/internal/recorder"
	"flattree/internal/telemetry"
	"flattree/internal/topo"
)

// Incremental route repair (§4.3): the controller touches only the
// *changed* rules on a link event, so the repair cost must be the cost of
// the affected pairs, not of a whole-table rebuild. IncrementalTable
// wraps a healthy baseline Table and tracks, per masked link, exactly the
// ordered ingress pairs whose installed paths die with it; only those are
// re-Yen'd (with the masked links banned, fanned out on the shared worker
// pool). Everything else keeps its installed paths — which is provably
// the from-scratch answer, because banning links a BFS/Yen result never
// used cannot change that result (bans only remove discovery events, so
// surviving discoveries keep their relative order).
//
// Granularity matters: the tracker indexes *bundles* — the set of
// parallel links between one switch pair — not individual links. Yen's
// spur step bans the exact link a previous path used, so a surviving
// parallel twin lets the spur BFS rediscover the same node sequence
// (discarded as seen) instead of deviating; masking that twin unblocks
// the deviation and changes the from-scratch result even though no
// installed path used the twin. A pair may keep its paths only when they
// avoid the failed link's whole bundle — the differential property test
// over parallel-link fabrics pins this.
//
// The same argument drives repair: a degraded pair whose baseline paths
// avoid every masked bundle gets the baseline restored verbatim (no
// Yen); the pairs still missing baseline bundles are recomputed, because
// a restored link can offer a better detour even to pairs whose baseline
// never used it. The result is byte-identical to BuildKShortest on the
// pruned topology after every event.

// RuleDelta is the per-switch forwarding-rule diff of one link event
// under ingress/egress prefix aggregation: how many rules each switch
// must delete and add to move from the previous table to the new one.
// Rules are content-addressed by (ingress, egress, path), so a pair's
// surviving paths contribute nothing — only the changed rules appear,
// matching §4.3's "only the changed rules are touched".
type RuleDelta struct {
	// Adds and Dels map switch node ID to the rules installed/removed
	// there. Switches with zero churn are absent.
	Adds, Dels map[int]int
}

func newRuleDelta() RuleDelta {
	return RuleDelta{Adds: map[int]int{}, Dels: map[int]int{}}
}

// Empty reports whether the event changed no rules.
func (d RuleDelta) Empty() bool { return len(d.Adds) == 0 && len(d.Dels) == 0 }

// TotalAdds sums the added rules over all switches (sequential-controller
// cost driver).
func (d RuleDelta) TotalAdds() int { return sumValues(d.Adds) }

// TotalDels sums the deleted rules over all switches.
func (d RuleDelta) TotalDels() int { return sumValues(d.Dels) }

// MaxAdds returns the added rules on the busiest switch (parallel-
// controller cost driver, control.DelayModel.Parallel).
func (d RuleDelta) MaxAdds() int { return maxValue(d.Adds) }

// MaxDels returns the deleted rules on the busiest switch.
func (d RuleDelta) MaxDels() int { return maxValue(d.Dels) }

func sumValues(m map[int]int) int {
	total := 0
	//flatvet:ordered integer sum is order-independent
	for _, v := range m {
		total += v
	}
	return total
}

func maxValue(m map[int]int) int {
	max := 0
	//flatvet:ordered integer max over values is order-independent
	for _, v := range m {
		if v > max {
			max = v
		}
	}
	return max
}

// IncrementalTable maintains the installed route table across link
// failures and repairs without whole-table rebuilds. It is built from a
// healthy baseline Table (which it never mutates — cached tables are
// safe to wrap) and mutated by Fail/Repair, each returning the exact
// per-switch rule delta of the event. Not safe for concurrent mutation;
// the churn engine drives it event by event.
type IncrementalTable struct {
	base *Table
	// banned is the set of currently masked link IDs on the original
	// graph.
	banned map[int]bool
	// cur holds the installed paths per ordered ingress pair; entries of
	// clean pairs alias the baseline's slices.
	cur map[graph.PairKey][]graph.Path
	// bundle maps each link ID of the original graph to its bundle: the
	// dense index of its normalized (low, high) endpoint pair, numbered in
	// order of first appearance. Built once; immutable.
	bundle []int
	// curUse indexes the installed paths at bundle granularity: bundle ->
	// pairs whose current paths traverse any link of that bundle — the
	// dirty-pair tracker. Emptied sets are kept for reuse.
	curUse []map[graph.PairKey]struct{}
	// baseUse indexes the baseline: bundle -> pairs (sorted) whose healthy
	// paths traverse it; immutable after construction.
	baseUse [][]graph.PairKey
	// baseBroken counts, per pair, how many banned links have a bundle the
	// pair's baseline paths traverse (one count per banned link, so two
	// masked twins of one bundle count twice); zero (absent) means the
	// pair is clean and its installed paths are the baseline's.
	baseBroken map[graph.PairKey]int
	// rules tracks the installed per-switch rule counts, updated by each
	// event's delta.
	rules map[int]int
	// adjBuf is pairAdjSet's reusable result buffer.
	adjBuf []int
	// rec, when set, receives one flight-recorder event per switch the
	// event's delta touches, stamped with simTime (the caller's event
	// clock — this table has no clock of its own).
	rec     *recorder.Track
	simTime float64
}

// bundleTable numbers the bundles of g — one per normalized (low, high)
// endpoint pair — in order of first appearance and returns each link's
// bundle with the bundle count.
func bundleTable(g *graph.Graph) ([]int, int) {
	type adjKey [2]int
	index := map[adjKey]int{}
	bundle := make([]int, g.NumLinks())
	for _, l := range g.Links() {
		a := adjKey{min(l.A, l.B), max(l.A, l.B)}
		b, ok := index[a]
		if !ok {
			b = len(index)
			index[a] = b
		}
		bundle[l.ID] = b
	}
	return bundle, len(index)
}

// NewIncremental wraps a healthy baseline table for incremental repair.
func NewIncremental(base *Table) *IncrementalTable {
	bundle, nBundles := bundleTable(base.topo.G)
	it := &IncrementalTable{
		base:       base,
		banned:     map[int]bool{},
		cur:        make(map[graph.PairKey][]graph.Path, len(base.Paths)),
		bundle:     bundle,
		curUse:     make([]map[graph.PairKey]struct{}, nBundles),
		baseUse:    make([][]graph.PairKey, nBundles),
		baseBroken: map[graph.PairKey]int{},
		rules:      base.PrefixRulesPerSwitch(),
	}
	for _, pk := range sortedPairKeys(base.Paths) {
		paths := base.Paths[pk]
		it.cur[pk] = paths
		for _, a := range it.pairAdjSet(paths) {
			it.baseUse[a] = append(it.baseUse[a], pk)
			it.addCurUse(a, pk)
		}
	}
	return it
}

// SetRecorder attaches a flight-recorder track; each Fail/Repair then
// emits its per-switch rule delta as sim-time events (see SetSimTime).
// A nil track disables emission.
func (it *IncrementalTable) SetRecorder(tr *recorder.Track) { it.rec = tr }

// SetSimTime positions the event clock used to stamp the next
// Fail/Repair's recorder events. The table is driven by callers that
// own the simulated clock (the churn engine), so the time arrives from
// outside rather than from any wall clock.
func (it *IncrementalTable) SetSimTime(t float64) { it.simTime = t }

// View returns the installed table as a *Table sharing the incremental
// state: it reflects every Fail/Repair applied so far and remains live
// through future events. Callers needing a frozen table must copy it.
func (it *IncrementalTable) View() *Table {
	return &Table{K: it.base.K, Ingress: it.base.Ingress, Paths: it.cur, topo: it.base.topo}
}

// RulesPerSwitch returns the installed per-switch rule counts, maintained
// incrementally from the event deltas; always equal to
// View().PrefixRulesPerSwitch().
func (it *IncrementalTable) RulesPerSwitch() map[int]int {
	out := make(map[int]int, len(it.rules))
	//flatvet:ordered copy into a fresh map; keys do not interact
	for sw, n := range it.rules {
		if n != 0 {
			out[sw] = n
		}
	}
	return out
}

// DegradedPairs returns how many ordered ingress pairs currently run on
// non-baseline paths.
func (it *IncrementalTable) DegradedPairs() int { return len(it.baseBroken) }

// Banned reports whether the link is currently masked.
func (it *IncrementalTable) Banned(link int) bool { return it.banned[link] }

// Fail masks a link and repairs exactly the pairs whose installed paths
// traverse its bundle, returning the per-switch rule delta. Masking a
// link whose bundle no installed path uses returns an empty delta: the
// controller has nothing to touch. Panics if the link is already masked.
func (it *IncrementalTable) Fail(link int) RuleDelta {
	if it.banned[link] {
		panic(fmt.Sprintf("routing: Fail(%d): link already masked", link))
	}
	start := time.Now()
	it.banned[link] = true
	adj := it.bundle[link]
	for _, pk := range it.baseUse[adj] {
		it.baseBroken[pk]++
	}
	dirty := sortedPairSet(it.curUse[adj])
	delta := newRuleDelta()
	it.recompute(dirty, delta)
	it.emitDelta(delta)
	it.finishEvent(len(dirty), start)
	return delta
}

// FailBetween masks one link of the (a, b) adjacency following the
// churn-engine masking rule — the lowest-ID surviving link of the bundle
// fails first — and returns the masked link ID with the event's per-switch
// rule delta. Unlike Fail it validates its input (flatd's /events/link
// feeds it operator requests): the endpoints must be switches joined by at
// least one surviving link. As long as every event on the adjacency goes
// through FailBetween/RepairBetween the masked set is always a prefix of
// the bundle's ascending link IDs, exactly the sequence churn.Engine
// compiles, so deltas here are byte-identical to the offline path.
func (it *IncrementalTable) FailBetween(a, b int) (int, RuleDelta, error) {
	ids, err := it.bundleBetween(a, b)
	if err != nil {
		return 0, RuleDelta{}, err
	}
	for _, id := range ids {
		if !it.banned[id] {
			return id, it.Fail(id), nil
		}
	}
	return 0, RuleDelta{}, fmt.Errorf("routing: no surviving link between %d and %d", a, b)
}

// RepairBetween unmasks the most recently masked link of the (a, b)
// adjacency (the masking rule's inverse: highest masked ID first) and
// returns the restored link ID with the event's per-switch rule delta.
func (it *IncrementalTable) RepairBetween(a, b int) (int, RuleDelta, error) {
	ids, err := it.bundleBetween(a, b)
	if err != nil {
		return 0, RuleDelta{}, err
	}
	for i := len(ids) - 1; i >= 0; i-- {
		if it.banned[ids[i]] {
			return ids[i], it.Repair(ids[i]), nil
		}
	}
	return 0, RuleDelta{}, fmt.Errorf("routing: no masked link between %d and %d", a, b)
}

// bundleBetween validates an adjacency request and returns its link IDs
// ascending. Server uplinks are rejected: a dead NIC removes the server,
// which is not a network property (matching churn.GenerateTrace).
func (it *IncrementalTable) bundleBetween(a, b int) ([]int, error) {
	t := it.base.topo
	for _, nd := range [2]int{a, b} {
		if nd < 0 || nd >= len(t.Nodes) {
			return nil, fmt.Errorf("routing: node %d out of range [0, %d)", nd, len(t.Nodes))
		}
		if t.Nodes[nd].Kind == topo.Server {
			return nil, fmt.Errorf("routing: node %d is a server; server uplinks do not fail", nd)
		}
	}
	var ids []int
	for _, id := range t.G.Incident(a) {
		if t.G.Link(id).Other(a) == b {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("routing: no link between %d and %d", a, b)
	}
	sort.Ints(ids)
	return ids, nil
}

// Repair unmasks a link: pairs whose baseline paths avoid every still-
// masked bundle get the baseline restored outright (banning bundles a
// Yen result never traverses cannot change it, so no recomputation is
// needed), while pairs still missing baseline bundles are re-Yen'd — the
// restored link can offer them a better detour. Returns the per-switch
// rule delta. Panics if the link is not masked.
func (it *IncrementalTable) Repair(link int) RuleDelta {
	if !it.banned[link] {
		panic(fmt.Sprintf("routing: Repair(%d): link not masked", link))
	}
	start := time.Now()
	delete(it.banned, link)
	var restored []graph.PairKey
	for _, pk := range it.baseUse[it.bundle[link]] {
		it.baseBroken[pk]--
		if it.baseBroken[pk] == 0 {
			delete(it.baseBroken, pk)
			restored = append(restored, pk)
		}
	}
	delta := newRuleDelta()
	for _, pk := range restored {
		it.install(pk, it.base.Paths[pk], delta)
	}
	degraded := sortedCountKeys(it.baseBroken)
	it.recompute(degraded, delta)
	it.emitDelta(delta)
	it.finishEvent(len(restored)+len(degraded), start)
	return delta
}

// emitDelta records one RuleDelta event per touched switch (ascending
// switch ID, so the track is deterministic) at the caller-set sim time.
func (it *IncrementalTable) emitDelta(delta RuleDelta) {
	if it.rec == nil || delta.Empty() {
		return
	}
	seen := make(map[int]bool, len(delta.Adds)+len(delta.Dels))
	switches := make([]int, 0, len(delta.Adds)+len(delta.Dels))
	//flatvet:ordered keys are collected then sorted
	for sw := range delta.Adds {
		if !seen[sw] {
			seen[sw] = true
			switches = append(switches, sw)
		}
	}
	//flatvet:ordered keys are collected then sorted
	for sw := range delta.Dels {
		if !seen[sw] {
			seen[sw] = true
			switches = append(switches, sw)
		}
	}
	sort.Ints(switches)
	for _, sw := range switches {
		it.rec.Emit(recorder.Event{T: it.simTime, Kind: recorder.RuleDelta, ID: sw,
			A: int64(delta.Adds[sw]), B: int64(delta.Dels[sw])})
	}
}

// recompute re-runs banned-link Yen for the pairs on the shared worker
// pool and installs the results. Pair computations are independent and
// collected by index, so the table is identical for any worker count.
func (it *IncrementalTable) recompute(pairs []graph.PairKey, delta RuleDelta) {
	if len(pairs) == 0 {
		return
	}
	g := it.base.topo.G
	k := it.base.K
	results, _ := parallel.Map(parallel.Default(), len(pairs), func(i int) ([]graph.Path, error) {
		return g.KShortestPathsBanned(pairs[i].Src, pairs[i].Dst, k, it.banned), nil
	})
	for i, pk := range pairs {
		it.install(pk, results[i], delta)
	}
}

// install replaces a pair's installed paths, folding the content-level
// rule diff into delta and keeping the use index and rule counts current.
func (it *IncrementalTable) install(pk graph.PairKey, paths []graph.Path, delta RuleDelta) {
	old := it.cur[pk]
	if pathSetsEqual(old, paths) {
		return
	}
	for _, p := range old {
		if !hasNodes(paths, p.Nodes) {
			for _, n := range p.Nodes {
				delta.Dels[n]++
				it.rules[n]--
			}
		}
	}
	for _, p := range paths {
		if !hasNodes(old, p.Nodes) {
			for _, n := range p.Nodes {
				delta.Adds[n]++
				it.rules[n]++
			}
		}
	}
	for _, a := range it.pairAdjSet(old) {
		delete(it.curUse[a], pk)
	}
	it.cur[pk] = paths
	for _, a := range it.pairAdjSet(paths) {
		it.addCurUse(a, pk)
	}
}

func (it *IncrementalTable) addCurUse(a int, pk graph.PairKey) {
	if it.curUse[a] == nil {
		it.curUse[a] = map[graph.PairKey]struct{}{}
	}
	it.curUse[a][pk] = struct{}{}
}

func (it *IncrementalTable) finishEvent(dirty int, start time.Time) {
	telemetry.C("routing_incremental_repairs_total").Inc()
	telemetry.C("routing_dirty_pairs_total").Add(int64(dirty))
	telemetry.H("routing_incremental_repair_seconds").Observe(time.Since(start).Seconds())
}

// pairAdjSet returns the distinct bundles a pair's paths traverse,
// ascending. The result reuses one buffer and is valid until the next
// call.
func (it *IncrementalTable) pairAdjSet(paths []graph.Path) []int {
	out := it.adjBuf[:0]
	for _, p := range paths {
		for _, l := range p.Links {
			out = append(out, it.bundle[l])
		}
	}
	slices.Sort(out)
	out = slices.Compact(out)
	it.adjBuf = out
	return out
}

// hasNodes reports whether some path in paths visits exactly the node
// sequence nodes — rule content identity: the path a rule forwards along.
func hasNodes(paths []graph.Path, nodes []int) bool {
	for _, p := range paths {
		if slices.Equal(p.Nodes, nodes) {
			return true
		}
	}
	return false
}

// pathSetsEqual compares two path lists exactly (nodes and links, in
// order).
func pathSetsEqual(a, b []graph.Path) bool {
	return slices.EqualFunc(a, b, func(x, y graph.Path) bool {
		return slices.Equal(x.Nodes, y.Nodes) && slices.Equal(x.Links, y.Links)
	})
}

func sortedPairKeys(m map[graph.PairKey][]graph.Path) []graph.PairKey {
	keys := make([]graph.PairKey, 0, len(m))
	//flatvet:ordered keys are collected then sorted
	for pk := range m {
		keys = append(keys, pk)
	}
	sortPairKeys(keys)
	return keys
}

func sortedPairSet(m map[graph.PairKey]struct{}) []graph.PairKey {
	keys := make([]graph.PairKey, 0, len(m))
	//flatvet:ordered keys are collected then sorted
	for pk := range m {
		keys = append(keys, pk)
	}
	sortPairKeys(keys)
	return keys
}

func sortedCountKeys(m map[graph.PairKey]int) []graph.PairKey {
	keys := make([]graph.PairKey, 0, len(m))
	//flatvet:ordered keys are collected then sorted
	for pk := range m {
		keys = append(keys, pk)
	}
	sortPairKeys(keys)
	return keys
}

func sortPairKeys(keys []graph.PairKey) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Src != keys[j].Src {
			return keys[i].Src < keys[j].Src
		}
		return keys[i].Dst < keys[j].Dst
	})
}
