package control

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"flattree/internal/core"
	"flattree/internal/graph"
	"flattree/internal/routing"
	"flattree/internal/topo"
)

// Link-failure handling (§4.3): the logically centralized controller
// "observes link failures and updates the graph, which happens
// infrequently and does not cause heavy burden". The installed
// routing.IncrementalTable owns the failure record — a count per endpoint
// pair — and each event touches only the pairs it changes. Node IDs are
// stable across conversions because realizations enumerate nodes
// identically in every mode, so a conversion carries the record onto the
// new mode's table (reinstall): a failure recorded in one mode stays
// masked after converting to another when the same physical cable is
// still in use, and lies dormant while the mode leaves that cable unused.
// flatd and churn apply link events to the table directly, so the
// controller's link API lives here, beside the tests and benchmarks that
// check that claim.

// FailLink records the failure of one link between switches a and b of
// the installed topology and masks it. Parallel links fail one at a time
// (each call masks one more). It refuses, recording nothing, a link the
// masking rule cannot take — a node out of range, a server uplink, no
// adjacency, or no surviving link — and a failure that would partition
// the fabric.
func (c *Controller) FailLink(a, b int) error {
	if _, _, err := c.inc.Apply(a, b, false); err != nil {
		return err
	}
	if node, cut := c.inc.CutOff(); cut {
		if _, _, err := c.inc.Apply(a, b, true); err != nil {
			return fmt.Errorf("control: undoing the failure of link %d-%d: %w", a, b, err)
		}
		return fmt.Errorf("control: failing link %d-%d would partition the network: node %d is cut off from node 0", a, b, node)
	}
	c.table = c.inc.Frozen()
	return nil
}

// RepairLink clears one recorded failure between a and b and restores
// the link it masked, if any: a dormant failure masks none.
func (c *Controller) RepairLink(a, b int) error {
	if _, _, err := c.inc.Apply(a, b, true); err != nil {
		return fmt.Errorf("control: no recorded failure between %d and %d", a, b)
	}
	c.table = c.inc.Frozen()
	return nil
}

// FailedLinks lists recorded failures as (a, b, count) triples with
// a < b, sorted by (a, b) so output is deterministic across runs.
func (c *Controller) FailedLinks() [][3]int { return c.inc.Failed() }

// pruneFailures is the from-scratch oracle of the controller's failure
// masking: it rebuilds the topology without the masked links — for each
// recorded pair, up to its count of that pair's links in link-ID order,
// the links routing.IncrementalTable.Apply masks — keeping node IDs
// and the relative link order, with servers re-attached last. A recorded
// failure whose adjacency the topology does not realize is dormant: the
// broken cable is simply not in use. It errors only when the surviving
// network no longer validates (partition).
func pruneFailures(t *topo.Topology, failed map[[2]int]int) (*topo.Topology, error) {
	if len(failed) == 0 {
		return t, nil
	}
	remaining := make(map[[2]int]int, len(failed))
	maps.Copy(remaining, failed)
	out := topo.NewTopology(t.Name + "-degraded")
	out.SetNumPods(t.NumPods())
	for _, n := range t.Nodes {
		id := out.AddNode(n.Kind, n.Pod)
		if id != n.ID {
			return nil, fmt.Errorf("control: node renumbering during prune")
		}
		out.Nodes[id].LocalIndex = n.LocalIndex
	}
	for _, l := range t.G.Links() {
		na, nb := t.Nodes[l.A], t.Nodes[l.B]
		if na.Kind != topo.Server && nb.Kind != topo.Server {
			key := linkKey(l.A, l.B)
			if remaining[key] > 0 {
				remaining[key]--
				continue // masked
			}
			out.AddLink(l.A, l.B)
		}
	}
	for _, s := range t.Servers() {
		out.AttachServer(s, t.AttachedSwitch(s))
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// failedMap returns the controller's failure record keyed by endpoint
// pair.
func failedMap(c *Controller) map[[2]int]int {
	out := map[[2]int]int{}
	for _, f := range c.FailedLinks() {
		out[[2]int{f[0], f[1]}] = f[2]
	}
	return out
}

func linkKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// TestFailRepairErrors pins the exact error of every event the controller
// refuses on the example network (Clos mode: edge 4 uplinks to aggs 6 and
// 7; servers are nodes 20-43), and that a refusal records nothing.
func TestFailRepairErrors(t *testing.T) {
	c := exampleController(t)
	if err := c.FailLink(4, 6); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		op   func() error
		want string
	}{
		{"node out of range", func() error { return c.FailLink(-1, 2) },
			"routing: node -1 out of range [0, 44)"},
		{"server endpoint", func() error { return c.FailLink(20, 4) },
			"routing: node 20 is a server; server uplinks do not fail"},
		{"no adjacency", func() error { return c.FailLink(4, 5) },
			"routing: no link between 4 and 5"},
		{"no surviving link", func() error { return c.FailLink(6, 4) },
			"routing: no surviving link between 6 and 4"},
		{"repair with no record", func() error { return c.RepairLink(4, 7) },
			"control: no recorded failure between 4 and 7"},
		{"partition", func() error { return c.FailLink(4, 7) },
			"control: failing link 4-7 would partition the network: node 4 is cut off from node 0"},
	} {
		err := tc.op()
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: error = %v, want %q", tc.name, err, tc.want)
		}
		if got := c.FailedLinks(); !reflect.DeepEqual(got, [][3]int{{4, 6, 1}}) {
			t.Fatalf("%s: failure record = %v, want [[4 6 1]]", tc.name, got)
		}
	}
}

// parallelParams is a 4-pod flat-tree whose edge switches reach each agg
// over two parallel links in every mode, so masking picks among twins.
var parallelParams = topo.ClosParams{
	Name: "parallel-4", Pods: 4, EdgesPerPod: 2, AggsPerPod: 2,
	ServersPerEdge: 3, EdgeUplinks: 4, AggUplinks: 4, Cores: 4,
}

// TestControllerMatchesPrunedRebuild drives seeded sequences of link
// failures, repairs and conversions through the controller. Each sequence
// starts with a failure on an adjacency only global mode realizes, which
// goes dormant in Clos and applies again back in global, then cuts one
// edge switch off until the controller refuses. After every step the
// installed state must equal BuildKShortest on the realization pruned of
// the recorded failures (the pruneFailures oracle), a refusal must be a
// partition of that oracle, each conversion's rule counts must equal the
// oracle tables', and a Table taken before the step must be unchanged by
// it.
func TestControllerMatchesPrunedRebuild(t *testing.T) {
	for _, tc := range []struct {
		name  string
		seeds int
		build func() (*core.Network, error)
	}{
		{"example", 4, core.ExampleNetwork},
		{"parallel-links", 2, func() (*core.Network, error) {
			return core.New(parallelParams, core.Options{N: 1, M: 1, Pattern: core.Pattern1})
		}},
	} {
		for seed := int64(1); seed <= int64(tc.seeds); seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				nw, err := tc.build()
				if err != nil {
					t.Fatal(err)
				}
				c, err := NewController(nw, TestbedDelayModel(), nil)
				if err != nil {
					t.Fatal(err)
				}
				runDifferential(t, c, rand.New(rand.NewSource(seed)))
			})
		}
	}
}

// event is one controller operation of a differential sequence: a link
// failure or repair of (a, b), or a conversion to modes.
type event struct {
	fail, repair bool
	a, b         int
	modes        []core.Mode
}

func (e event) String() string {
	switch {
	case e.fail:
		return fmt.Sprintf("fail %d-%d", e.a, e.b)
	case e.repair:
		return fmt.Sprintf("repair %d-%d", e.a, e.b)
	}
	return "convert " + modesLabel(e.modes)
}

func runDifferential(t *testing.T, c *Controller, rng *rand.Rand) {
	pods := c.Network().Clos().Pods
	uniform := func(m core.Mode) event {
		e := event{modes: make([]core.Mode, pods)}
		for p := range e.modes {
			e.modes[p] = m
		}
		return e
	}
	ref := requireOracle(t, "initial", c)
	apply := func(e event) bool {
		t.Helper()
		before := c.Table()
		frozen := clonePaths(before.Paths)
		record, modes := failedMap(c), c.Network().PodModes()
		var rep *ConversionReport
		var err error
		switch {
		case e.fail:
			err = c.FailLink(e.a, e.b)
		case e.repair:
			err = c.RepairLink(e.a, e.b)
		default:
			rep, err = c.ConvertPods(e.modes)
		}
		if !pathsEqual(before.Paths, frozen) {
			t.Fatalf("%v: a Table taken before the event changed", e)
		}
		if err != nil {
			if !maps.Equal(failedMap(c), record) || !slices.Equal(c.Network().PodModes(), modes) {
				t.Fatalf("%v refused (%v) but changed the record %v -> %v or modes %v -> %v",
					e, err, record, failedMap(c), modes, c.Network().PodModes())
			}
			if strings.Contains(err.Error(), "would partition") {
				requirePartitioned(t, c, e, err)
			}
			requireOracle(t, e.String(), c)
			return false
		}
		next := requireOracle(t, e.String(), c)
		if rep != nil && (rep.RulesDeleted != ref.TotalPrefixRules() || rep.RulesAdded != next.TotalPrefixRules()) {
			t.Fatalf("%v: %d rules deleted and %d added, oracle tables %d and %d",
				e, rep.RulesDeleted, rep.RulesAdded, ref.TotalPrefixRules(), next.TotalPrefixRules())
		}
		ref = next
		return true
	}

	// A global-only adjacency: dormant in Clos, masked again in global.
	apply(uniform(core.ModeGlobal))
	clos := c.Network().Clone()
	clos.SetMode(core.ModeClos)
	closAdj := map[[2]int]bool{}
	for _, ab := range switchAdjacencies(clos.Realize().Topo) {
		closAdj[ab] = true
	}
	var globalOnly [2]int
	for _, ab := range switchAdjacencies(c.Realization().Topo) {
		if !closAdj[ab] {
			globalOnly = ab
			break
		}
	}
	if !apply(event{fail: true, a: globalOnly[0], b: globalOnly[1]}) {
		t.Fatalf("failing global-only adjacency %v refused", globalOnly)
	}
	for _, m := range []core.Mode{core.ModeClos, core.ModeGlobal} {
		apply(uniform(m))
		masked := c.Realization().Topo.G.NumLinks() - liveLinks(c)
		if want := map[core.Mode]int{core.ModeClos: 0, core.ModeGlobal: 1}[m]; masked != want {
			t.Fatalf("%v mode masks %d links under record %v, want %d", m, masked, c.FailedLinks(), want)
		}
	}

	// Cut one edge switch's links until the controller refuses.
	tp := c.Realization().Topo
	edge := tp.Edges()[rng.Intn(len(tp.Edges()))]
	refused := false
	for _, id := range tp.G.Incident(edge) {
		if other := tp.G.Link(id).Other(edge); tp.Nodes[other].Kind != topo.Server && !apply(event{fail: true, a: edge, b: other}) {
			refused = true
			break
		}
	}
	if !refused {
		t.Fatalf("cutting every link of edge %d was never refused", edge)
	}

	allModes := []core.Mode{core.ModeClos, core.ModeLocal, core.ModeGlobal}
	for i := 0; i < 24; i++ {
		var e event
		switch r := rng.Intn(20); {
		case r < 8:
			adj := switchAdjacencies(c.Realization().Topo)
			ab := adj[rng.Intn(len(adj))]
			e = event{fail: true, a: ab[0], b: ab[1]}
		case r < 13:
			if recs := c.FailedLinks(); len(recs) > 0 {
				f := recs[rng.Intn(len(recs))]
				e = event{repair: true, a: f[0], b: f[1]}
				break
			}
			fallthrough
		case r < 16:
			e = uniform(allModes[rng.Intn(len(allModes))])
		default:
			e = event{modes: make([]core.Mode, pods)}
			for p := range e.modes {
				e.modes[p] = allModes[rng.Intn(len(allModes))]
			}
		}
		apply(e)
	}
}

// requireOracle asserts the controller's installed state equals the
// oracle — BuildKShortest on its realization pruned of the recorded
// failures — pair by pair: node sequences equal, links matched by
// endpoints and never masked. Rule counts must equal the oracle's prefix
// rules. It returns the oracle table.
func requireOracle(t *testing.T, step string, c *Controller) *routing.Table {
	t.Helper()
	healthy := c.Realization().Topo
	pruned, err := pruneFailures(healthy, failedMap(c))
	if err != nil {
		t.Fatalf("%s: installed state is partitioned under record %v: %v", step, c.FailedLinks(), err)
	}
	ref := routing.BuildKShortest(pruned, c.kForCurrent())
	got := c.Table()
	if !slices.Equal(got.Ingress, ref.Ingress) || len(got.Paths) != len(ref.Paths) {
		t.Fatalf("%s: ingress %v / %d pairs installed, oracle %v / %d", step, got.Ingress, len(got.Paths), ref.Ingress, len(ref.Paths))
	}
	for pi, refPaths := range ref.Paths {
		paths := got.Paths[pi]
		if len(paths) != len(refPaths) {
			t.Fatalf("%s pair %v: %d paths installed, oracle %d", step, ref.Pair(pi), len(paths), len(refPaths))
		}
		for i, rp := range refPaths {
			if !slices.Equal(paths[i].Nodes, rp.Nodes) {
				t.Fatalf("%s pair %v path %d: nodes %v, oracle %v", step, ref.Pair(pi), i, paths[i].Nodes, rp.Nodes)
			}
			for j, id := range paths[i].Links {
				l, o := healthy.G.Link(id), pruned.G.Link(rp.Links[j])
				if linkKey(l.A, l.B) != linkKey(o.A, o.B) || c.inc.Banned(id) {
					t.Fatalf("%s pair %v path %d hop %d: link %d (%d-%d, masked %v), oracle %d-%d",
						step, ref.Pair(pi), i, j, id, l.A, l.B, c.inc.Banned(id), o.A, o.B)
				}
			}
		}
	}
	if want := ref.PrefixRulesPerSwitch(); !reflect.DeepEqual(c.RulesPerSwitch(), want) {
		t.Fatalf("%s: rules per switch %v, oracle %v", step, c.RulesPerSwitch(), want)
	}
	return ref
}

// requirePartitioned asserts the oracle agrees with a partition refusal:
// the state the event asked for does not validate once pruned.
func requirePartitioned(t *testing.T, c *Controller, e event, refusal error) {
	t.Helper()
	record, r := failedMap(c), c.Realization()
	if e.fail {
		record[linkKey(e.a, e.b)]++
	} else {
		nw := c.Network().Clone()
		for p, m := range e.modes {
			if err := nw.SetPodMode(p, m); err != nil {
				t.Fatal(err)
			}
		}
		r = nw.Realize()
	}
	if _, err := pruneFailures(r.Topo, record); err == nil {
		t.Fatalf("%v refused (%v), but the oracle's pruned topology validates", e, refusal)
	}
}

// switchAdjacencies lists a topology's switch-to-switch endpoint pairs,
// once each, in link order.
func switchAdjacencies(tp *topo.Topology) [][2]int {
	seen := map[[2]int]bool{}
	var out [][2]int
	for _, l := range tp.G.Links() {
		key := linkKey(l.A, l.B)
		if tp.Nodes[l.A].Kind == topo.Server || tp.Nodes[l.B].Kind == topo.Server || seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, key)
	}
	return out
}

func clonePaths(paths [][]graph.Path) [][]graph.Path {
	out := make([][]graph.Path, len(paths))
	for i, ps := range paths {
		for _, p := range ps {
			out[i] = append(out[i], graph.Path{Nodes: slices.Clone(p.Nodes), Links: slices.Clone(p.Links)})
		}
	}
	return out
}

func pathsEqual(a, b [][]graph.Path) bool {
	return slices.EqualFunc(a, b, func(x, y []graph.Path) bool {
		return slices.EqualFunc(x, y, func(p, q graph.Path) bool {
			return slices.Equal(p.Nodes, q.Nodes) && slices.Equal(p.Links, q.Links)
		})
	})
}

// RulesPerSwitch returns the installed per-switch rule counts.
func (c *Controller) RulesPerSwitch() map[int]int { return c.inc.RulesPerSwitch() }
