package routing

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"time"

	"flattree/internal/graph"
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
// Yen). A pair still missing baseline bundles may gain a better detour
// from the restored link X = (u, v), so it is recomputed — unless the
// distance bound below proves it cannot. The result is byte-identical to
// BuildKShortest on the pruned topology after every event.
//
// The distance bound. Keep a degraded pair (s, d) as installed when it
// holds exactly k paths and every s–d path through X is longer than its
// k-th path L_k:
//
//	min(d(s,u)+1+d(v,d), d(s,v)+1+d(u,d)) > hops(cur[k-1])
//
// with d the hop distances over the links unmasked after the repair
// (two BFS runs per repair event, from u and from v). By the table
// invariant the installed paths are a from-scratch Yen on the banned set
// before the repair. Restoring X changes a BFS only through discoveries
// made via X: run the "bans only remove discoveries" argument above in
// reverse, and any node whose BFS parent changes has X on its discovery
// chain. So every first-path or spur search whose result changes now
// returns a path through X — by the bound longer than L_k — and the
// search it replaces returned one at least as long, as the graph before
// the repair is a subgraph of the one after. Neither is ever accepted
// among the first k. The candidates of at most L_k hops are the same
// paths in the same relative discovery order, so Yen accepts the same k
// paths. A pair with fewer than k paths ran out of candidates, and a path
// through X may now extend it, so it is always recomputed. Equality does
// not prune: a path through X with exactly L_k hops can win on discovery
// order.
//
// Every search behind a repair also skips the degree-1 nodes (servers)
// unless the destination is one: a degree-1 node other than the
// destination is never interior to a loopless path, and dropping it
// leaves every other discovery, predecessor and relative queue position
// unchanged (graph's scratch.search carries the argument).
//
// Bookkeeping is indexed by the table's pair number (Table.Pair), so an
// event's bookkeeping touches slices and bitsets only. Walking a bundle's
// bitset row visits its pairs already sorted.

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
// failures and repairs without whole-table rebuilds, and owns the link
// state: the failure record and the links it masks. It wraps a healthy
// baseline Table (never mutated — cached tables are safe to wrap) and is
// mutated by Apply, which returns each event's exact per-switch rule
// delta. Not safe for concurrent mutation: each caller drives its own.
type IncrementalTable struct {
	base *Table
	// failed is the failure record, a count per normalized (low, high)
	// switch pair. An adjacency masks the first min(count, links) of its
	// ascending link IDs; the rest of a count is dormant (NewIncremental).
	failed map[[2]int]int
	// banned is the set of currently masked link IDs on the original
	// graph.
	banned map[int]bool
	// paths holds the installed paths by pair number (Table.Pair), the
	// slice View serves; entries of clean pairs alias the baseline's.
	// Every per-pair slice below is indexed by the same number.
	paths [][]graph.Path
	// bundle maps each link ID of the original graph to its bundle: the
	// dense index of its normalized (low, high) endpoint pair, numbered in
	// order of first appearance. Built once; immutable.
	bundle []int
	// curUse indexes the installed paths at bundle granularity: bundle ->
	// bitset over pair numbers of the pairs whose current paths traverse
	// any link of that bundle — the dirty-pair tracker. A row is allocated
	// when some path first uses the bundle and kept once emptied. Bits
	// are set and cleared per path link, so no per-pair bundle list is
	// kept: a bundle several of a pair's links cross is simply set, or
	// cleared, more than once.
	curUse [][]uint64
	// baseUse indexes the baseline: bundle -> pair numbers (ascending) of
	// the pairs whose healthy paths traverse it; immutable after
	// construction.
	baseUse [][]int32
	// broken counts, per pair, how many banned links have a bundle the
	// pair's baseline paths traverse (one count per banned link, so two
	// masked twins of one bundle count twice); zero means the pair is
	// clean and its installed paths are the baseline's. degraded is the
	// number of nonzero entries.
	broken   []int32
	degraded int
	// rules tracks the installed rule count per node, updated by each
	// event's delta.
	rules []int
	// adds and dels accumulate the current event's rule diff per node;
	// touched lists the nodes with a nonzero entry in either, so
	// takeDelta turns them into the event's RuleDelta and clears them.
	adds, dels []int
	touched    []int
	// work is the reusable list of pair numbers an event recomputes.
	work []int32
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

// NewIncremental wraps a healthy baseline table for incremental repair
// and masks a failure record on it, (a, b, count) entries as Failed lists
// them. An entry masks up to count links of the (a, b) switch adjacency;
// the rest of the count, all of it when the topology lacks the cable,
// stays recorded and dormant. The masked links' pairs are recomputed in
// one batch, so the record costs one repair, not one per entry.
func NewIncremental(base *Table, record [][3]int) *IncrementalTable {
	g := base.topo.G
	bundle, nBundles := bundleTable(g)
	it := &IncrementalTable{
		base:    base,
		failed:  map[[2]int]int{},
		banned:  map[int]bool{},
		paths:   slices.Clone(base.Paths),
		bundle:  bundle,
		curUse:  make([][]uint64, nBundles),
		baseUse: make([][]int32, nBundles),
		broken:  make([]int32, len(base.Paths)),
		rules:   make([]int, g.NumNodes()),
		adds:    make([]int, g.NumNodes()),
		dels:    make([]int, g.NumNodes()),
	}
	for pi, paths := range it.paths {
		for _, p := range paths {
			for _, n := range p.Nodes {
				it.rules[n]++
			}
		}
		it.markUses(int32(pi), paths, true)
	}
	for b, row := range it.curUse {
		n := 0
		for _, word := range row {
			n += bits.OnesCount64(word)
		}
		it.baseUse[b] = appendUsers(make([]int32, 0, n), row)
	}
	for _, f := range record {
		if f[2] > 0 {
			it.failed[[2]int{min(f[0], f[1]), max(f[0], f[1])}] += f[2]
		}
	}
	var links []int
	for _, f := range it.Failed() {
		if ids, err := it.bundleBetween(f[0], f[1]); err == nil {
			links = append(links, ids[:min(f[2], len(ids))]...)
		}
	}
	if len(links) > 0 {
		it.fail(links...)
	}
	return it
}

// SetRecorder attaches a flight-recorder track; each Apply then emits
// its link event and per-switch rule delta as sim-time events (see
// SetSimTime). A nil track disables emission.
func (it *IncrementalTable) SetRecorder(tr *recorder.Track) { it.rec = tr }

// SetSimTime positions the event clock used to stamp the next Apply's
// recorder events. The table is driven by callers that own the simulated
// clock (the churn engine), so the time arrives from outside rather than
// from any wall clock.
func (it *IncrementalTable) SetSimTime(t float64) { it.simTime = t }

// View returns the installed table as a *Table sharing the incremental
// state: it reflects every event applied so far and remains live
// through future events. Callers needing a frozen table must copy it; a
// copy of Paths suffices, as an event replaces a pair's path slice and
// never edits one in place.
func (it *IncrementalTable) View() *Table {
	return &Table{K: it.base.K, Ingress: it.base.Ingress, Paths: it.paths, topo: it.base.topo}
}

// RulesPerSwitch returns the installed per-switch rule counts, maintained
// incrementally from the event deltas; always equal to
// View().PrefixRulesPerSwitch().
func (it *IncrementalTable) RulesPerSwitch() map[int]int {
	out := map[int]int{}
	for sw, n := range it.rules {
		if n != 0 {
			out[sw] = n
		}
	}
	return out
}

// DegradedPairs returns how many ordered ingress pairs currently run on
// non-baseline paths.
func (it *IncrementalTable) DegradedPairs() int { return it.degraded }

// Banned reports whether the link is currently masked.
func (it *IncrementalTable) Banned(link int) bool { return it.banned[link] }

// Failed returns the failure record as (a, b, count) triples with a < b,
// sorted by (a, b). Dormant counts are included.
func (it *IncrementalTable) Failed() [][3]int {
	var out [][3]int
	for ab, n := range it.failed {
		out = append(out, [3]int{ab[0], ab[1], n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] || out[i][0] == out[j][0] && out[i][1] < out[j][1] })
	return out
}

// Masked returns the IDs of the masked links, ascending.
func (it *IncrementalTable) Masked() []int {
	out := make([]int, 0, len(it.banned))
	for id := range it.banned {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// CutOff returns the lowest node the masked links leave unreachable from
// node 0; cut is false when every node is reachable.
func (it *IncrementalTable) CutOff() (node int, cut bool) {
	for n, d := range it.base.topo.G.BFSDistancesBanned(0, it.banned) {
		if d < 0 {
			return n, true
		}
	}
	return 0, false
}

// Apply records a failure (or repair) of the (a, b) switch adjacency, in
// either endpoint order, and masks its lowest-ID surviving link (restores
// its highest-ID masked one), so churn, flatd and the controller mask the
// same link for the same events. It returns the link and the per-switch
// rule delta, emitting a link_fail or link_repair recorder event ahead of
// the delta's; a dormant failure's repair returns link -1 and an empty
// delta. It validates its input, as flatd feeds it operator requests: a
// failure needs switches joined by a surviving link, a repair a record.
func (it *IncrementalTable) Apply(a, b int, repair bool) (link int, delta RuleDelta, err error) {
	key := [2]int{min(a, b), max(a, b)}
	n := it.failed[key]
	ids, err := it.bundleBetween(a, b)
	if !repair {
		if err != nil {
			return -1, RuleDelta{}, err
		}
		if n >= len(ids) {
			return -1, RuleDelta{}, fmt.Errorf("routing: no surviving link between %d and %d", a, b)
		}
		it.failed[key] = n + 1
		it.rec.Emit(recorder.Event{T: it.simTime, Kind: recorder.LinkFail, ID: ids[n], A: int64(a), B: int64(b)})
		return ids[n], it.fail(ids[n]), nil
	}
	if n == 0 {
		if err == nil {
			err = fmt.Errorf("routing: no masked link between %d and %d", a, b)
		}
		return -1, RuleDelta{}, err
	}
	if it.failed[key] = n - 1; n == 1 {
		delete(it.failed, key)
	}
	if n > len(ids) {
		return -1, RuleDelta{}, nil // dormant
	}
	it.rec.Emit(recorder.Event{T: it.simTime, Kind: recorder.LinkRepair, ID: ids[n-1], A: int64(a), B: int64(b)})
	return ids[n-1], it.repair(ids[n-1]), nil
}

// fail masks unmasked links and repairs, in one batch, exactly the pairs
// whose installed paths traverse one of their bundles, returning the
// per-switch rule delta. Masking links whose bundles no installed path
// uses returns an empty delta: the controller has nothing to touch.
func (it *IncrementalTable) fail(links ...int) RuleDelta {
	start := time.Now()
	dirty := it.work[:0]
	for _, link := range links {
		it.banned[link] = true
		b := it.bundle[link]
		for _, pi := range it.baseUse[b] {
			if it.broken[pi] == 0 {
				it.degraded++
			}
			it.broken[pi]++
		}
		// Snapshot the bundle's users: installing new paths edits the row.
		dirty = appendUsers(dirty, it.curUse[b])
	}
	slices.Sort(dirty)
	dirty = slices.Compact(dirty)
	it.work = dirty
	it.recompute(dirty)
	delta := it.takeDelta()
	it.finishEvent(len(dirty), start)
	return delta
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

// repair unmasks a masked link: pairs whose baseline paths avoid every
// still-masked bundle get the baseline restored outright (banning bundles
// a Yen result never traverses cannot change it, so no recomputation is
// needed), while pairs still missing baseline bundles are re-Yen'd — the
// restored link can offer them a better detour — except those the
// distance bound proves it cannot (see the package notes above). Returns
// the per-switch rule delta.
func (it *IncrementalTable) repair(link int) RuleDelta {
	start := time.Now()
	delete(it.banned, link)
	restored := 0
	for _, pi := range it.baseUse[it.bundle[link]] {
		it.broken[pi]--
		if it.broken[pi] == 0 {
			it.degraded--
			restored++
			it.install(pi, it.base.Paths[pi])
		}
	}
	todo := it.work[:0]
	pruned := 0
	if it.degraded > 0 {
		g := it.base.topo.G
		x := g.Link(link)
		du := g.BFSDistancesBanned(x.A, it.banned)
		dv := g.BFSDistancesBanned(x.B, it.banned)
		k := it.base.K
		for pi, n := range it.broken {
			if n == 0 {
				continue
			}
			cur, pk := it.paths[pi], it.base.Pair(pi)
			if len(cur) == k && hopsThrough(du, dv, pk.Src, pk.Dst) > cur[k-1].Len() {
				pruned++
				continue
			}
			todo = append(todo, int32(pi))
		}
	}
	it.work = todo
	it.recompute(todo)
	delta := it.takeDelta()
	telemetry.C("routing_repair_pruned_pairs_total").Add(int64(pruned))
	it.finishEvent(restored+len(todo), start)
	return delta
}

// hopsThrough returns the fewest hops of an s–d walk through the link
// whose endpoints have the distance arrays du and dv (-1 unreachable),
// or math.MaxInt when there is none.
func hopsThrough(du, dv []int, s, d int) int {
	best := math.MaxInt
	if du[s] >= 0 && dv[d] >= 0 {
		best = du[s] + 1 + dv[d]
	}
	if dv[s] >= 0 && du[d] >= 0 {
		best = min(best, dv[s]+1+du[d])
	}
	return best
}

// recompute re-runs banned-link Yen for the numbered pairs as one
// graph.KShortestPairs batch on the shared worker pool (one distance row
// per destination, pairs collected by index, so the table is identical
// for any worker count) and installs the results.
func (it *IncrementalTable) recompute(pairs []int32) {
	if len(pairs) == 0 {
		return
	}
	keys := make([]graph.PairKey, len(pairs))
	for i, pi := range pairs {
		keys[i] = it.base.Pair(int(pi))
	}
	results := it.base.topo.G.KShortestPairs(keys, it.base.K, it.banned)
	for i, pi := range pairs {
		it.install(pi, results[i])
	}
}

// install replaces pair pi's installed paths, folding the content-level
// rule diff into the event's accumulators and keeping the use index and
// rule counts current.
func (it *IncrementalTable) install(pi int32, paths []graph.Path) {
	old := it.paths[pi]
	if pathSetsEqual(old, paths) {
		return
	}
	for _, p := range old {
		if !hasNodes(paths, p.Nodes) {
			it.tally(p.Nodes, it.dels, -1)
		}
	}
	for _, p := range paths {
		if !hasNodes(old, p.Nodes) {
			it.tally(p.Nodes, it.adds, 1)
		}
	}
	it.markUses(pi, old, false)
	it.markUses(pi, paths, true)
	it.paths[pi] = paths
}

// tally counts one rule per node of a path into acc (the event's adds or
// dels) and moves the installed counts by sign.
func (it *IncrementalTable) tally(nodes []int, acc []int, sign int) {
	for _, n := range nodes {
		if it.adds[n] == 0 && it.dels[n] == 0 {
			it.touched = append(it.touched, n)
		}
		acc[n]++
		it.rules[n] += sign
	}
}

// markUses sets (or clears) pair pi's bit in the row of every bundle the
// paths traverse, allocating a row on its bundle's first use.
func (it *IncrementalTable) markUses(pi int32, paths []graph.Path, set bool) {
	word, bit := pi/64, uint64(1)<<(pi%64)
	for _, p := range paths {
		for _, l := range p.Links {
			b := it.bundle[l]
			if !set {
				it.curUse[b][word] &^= bit
				continue
			}
			if it.curUse[b] == nil {
				it.curUse[b] = make([]uint64, (len(it.paths)+63)/64)
			}
			it.curUse[b][word] |= bit
		}
	}
}

// appendUsers appends the pair numbers whose bits are set in a bundle's
// row to dst, ascending.
func appendUsers(dst []int32, row []uint64) []int32 {
	for w, word := range row {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, int32(w*64+bits.TrailingZeros64(word)))
		}
	}
	return dst
}

// takeDelta turns the event's accumulators into its RuleDelta, emits one
// recorder event per touched switch (ascending switch ID, so the track is
// deterministic) at the caller-set sim time, and clears them.
func (it *IncrementalTable) takeDelta() RuleDelta {
	slices.Sort(it.touched)
	nAdds, nDels := 0, 0
	for _, n := range it.touched {
		if it.adds[n] > 0 {
			nAdds++
		}
		if it.dels[n] > 0 {
			nDels++
		}
	}
	delta := RuleDelta{Adds: make(map[int]int, nAdds), Dels: make(map[int]int, nDels)}
	for _, n := range it.touched {
		a, d := it.adds[n], it.dels[n]
		if a > 0 {
			delta.Adds[n] = a
		}
		if d > 0 {
			delta.Dels[n] = d
		}
		if it.rec != nil {
			it.rec.Emit(recorder.Event{T: it.simTime, Kind: recorder.RuleDelta, ID: n, A: int64(a), B: int64(d)})
		}
		it.adds[n], it.dels[n] = 0, 0
	}
	it.touched = it.touched[:0]
	return delta
}

func (it *IncrementalTable) finishEvent(dirty int, start time.Time) {
	telemetry.C("routing_incremental_repairs_total").Inc()
	telemetry.C("routing_dirty_pairs_total").Add(int64(dirty))
	telemetry.H("routing_incremental_repair_seconds").Observe(time.Since(start).Seconds())
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
