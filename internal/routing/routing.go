// Package routing implements the path selection machinery of §4: k-shortest-
// path route tables computed at the ingress/egress switch level (Observation
// 2 of §4.2.1), server-level path expansion, ECMP with header-hash path
// choice for the Clos baseline, and network-state accounting.
package routing

import (
	"fmt"
	"sort"
	"time"

	"flattree/internal/graph"
	"flattree/internal/telemetry"
	"flattree/internal/topo"
)

// Table holds switch-level k-shortest paths between every ordered pair of
// ingress/egress switches (switches with at least one attached server).
type Table struct {
	K int
	// Ingress lists the ingress/egress switch node IDs in ascending order.
	Ingress []int
	// Paths holds each ordered ingress-switch pair's k-shortest loopless
	// paths, shortest first, indexed by pair number (see Pair).
	Paths [][]graph.Path
	topo  *topo.Topology
}

// BuildKShortest computes the table for the realized topology. Per
// Observation 1, servers reach exactly one ingress switch, so only
// switch-to-switch paths are stored; per Observation 2, those paths capture
// the selected server-pair paths.
func BuildKShortest(t *topo.Topology, k int) *Table {
	if k < 1 {
		panic(fmt.Sprintf("routing: k = %d", k))
	}
	start := time.Now()
	defer func() {
		telemetry.C("routing_tables_built_total").Inc()
		telemetry.H("routing_build_seconds").Observe(time.Since(start).Seconds())
	}()
	ingressSet := make(map[int]bool)
	for _, s := range t.Servers() {
		ingressSet[t.AttachedSwitch(s)] = true
	}
	ingress := make([]int, 0, len(ingressSet))
	for sw := range ingressSet {
		ingress = append(ingress, sw)
	}
	sort.Ints(ingress)

	tb := &Table{K: k, Ingress: ingress, topo: t}
	pairs := make([]graph.PairKey, len(ingress)*(len(ingress)-1))
	for i := range pairs {
		pairs[i] = tb.Pair(i)
	}
	tb.Paths = t.G.KShortestAllPairs(pairs, k)
	return tb
}

// Pair returns the ordered ingress-switch pair numbered i, for i in
// [0, len(Paths)). Pairs are numbered in (Src, Dst) order over the sorted
// Ingress list, skipping src == dst.
func (tb *Table) Pair(i int) graph.PairKey {
	row, col := i/(len(tb.Ingress)-1), i%(len(tb.Ingress)-1)
	if col >= row {
		col++
	}
	return graph.PairKey{Src: tb.Ingress[row], Dst: tb.Ingress[col]}
}

// SwitchPaths returns the k-shortest paths between two ingress switches.
// For src == dst it returns one zero-length path; for a node that is not
// an ingress switch it returns nil.
func (tb *Table) SwitchPaths(src, dst int) []graph.Path {
	if src == dst {
		return []graph.Path{{Nodes: []int{src}}}
	}
	row, srcOK := tb.ingressRow(src)
	col, dstOK := tb.ingressRow(dst)
	if !srcOK || !dstOK {
		return nil
	}
	if col > row {
		col--
	}
	return tb.Paths[row*(len(tb.Ingress)-1)+col]
}

// ingressRow returns a node's position in Ingress and whether it is an
// ingress switch. It uses sort.SearchInts: with the generic
// slices.BinarySearch a SwitchPaths lookup measured about 70% slower.
func (tb *Table) ingressRow(n int) (int, bool) {
	i := sort.SearchInts(tb.Ingress, n)
	return i, i < len(tb.Ingress) && tb.Ingress[i] == n
}

// ServerPaths expands switch-level paths to full server-to-server paths,
// including the two server uplinks. Intra-switch pairs get the single
// two-hop path through their shared switch.
func (tb *Table) ServerPaths(srcServer, dstServer int) []graph.Path {
	t := tb.topo
	sSw, dSw := t.AttachedSwitch(srcServer), t.AttachedSwitch(dstServer)
	sUp := serverUplink(t, srcServer)
	dUp := serverUplink(t, dstServer)
	if sSw == dSw {
		return []graph.Path{{
			Nodes: []int{srcServer, sSw, dstServer},
			Links: []int{sUp, dUp},
		}}
	}
	swPaths := tb.SwitchPaths(sSw, dSw)
	out := make([]graph.Path, 0, len(swPaths))
	for _, p := range swPaths {
		nodes := make([]int, 0, len(p.Nodes)+2)
		links := make([]int, 0, len(p.Links)+2)
		nodes = append(nodes, srcServer)
		nodes = append(nodes, p.Nodes...)
		nodes = append(nodes, dstServer)
		links = append(links, sUp)
		links = append(links, p.Links...)
		links = append(links, dUp)
		out = append(out, graph.Path{Nodes: nodes, Links: links})
	}
	return out
}

// ServerSlots returns ServerPaths' server-to-server paths as directed
// capacity-slot lists on the table's graph (DirectedLinkIDs): a simulator
// connection's path set. A caller that wants fewer paths narrows the
// table with WithK.
func (tb *Table) ServerSlots(srcServer, dstServer int) [][]int {
	paths := tb.ServerPaths(srcServer, dstServer)
	out := make([][]int, len(paths))
	for i, p := range paths {
		out[i] = DirectedLinkIDs(tb.topo.G, p)
	}
	return out
}

// serverUplink returns the single link incident to a server.
func serverUplink(t *topo.Topology, server int) int {
	inc := t.G.Incident(server)
	if len(inc) != 1 {
		panic(fmt.Sprintf("routing: server %d has %d links", server, len(inc)))
	}
	return inc[0]
}

// EqualCostPaths returns only the minimum-length prefix of the k paths
// between two ingress switches — the path set ECMP spreads over. When
// every stored path is minimum length the true equal-cost set may extend
// past the table's k (Yen stopped, not the topology), silently biasing an
// ECMP baseline toward the first k paths; that truncation is surfaced via
// the routing_ecmp_truncated_total counter.
func (tb *Table) EqualCostPaths(src, dst int) []graph.Path {
	paths := tb.SwitchPaths(src, dst)
	if len(paths) == 0 {
		return nil
	}
	min := paths[0].Len()
	i := 0
	for i < len(paths) && paths[i].Len() == min {
		i++
	}
	if i == len(paths) && len(paths) >= tb.K {
		telemetry.C("routing_ecmp_truncated_total").Inc()
	}
	return paths[:i]
}

// ECMPServerPath picks the single path a TCP flow takes under ECMP: the
// flow's header hash selects pseudo-randomly among the equal-cost shortest
// switch paths (§5.2: "the next hop at each switch is determined
// pseudo-randomly by header field hashing, so each TCP flow traverses only
// one of the equal cost shortest paths").
func (tb *Table) ECMPServerPath(srcServer, dstServer int, flowHash uint64) (graph.Path, bool) {
	t := tb.topo
	sSw, dSw := t.AttachedSwitch(srcServer), t.AttachedSwitch(dstServer)
	if sSw == dSw {
		ps := tb.ServerPaths(srcServer, dstServer)
		return ps[0], true
	}
	eq := tb.EqualCostPaths(sSw, dSw)
	if len(eq) == 0 {
		return graph.Path{}, false
	}
	p := eq[int(flowHash%uint64(len(eq)))]
	sUp, dUp := serverUplink(t, srcServer), serverUplink(t, dstServer)
	nodes := append(append(append([]int(nil), srcServer), p.Nodes...), dstServer)
	links := append(append(append([]int(nil), sUp), p.Links...), dUp)
	return graph.Path{Nodes: nodes, Links: links}, true
}

// FlowHash is the deterministic header hash used for ECMP path selection
// (FNV-1a over the 4-tuple surrogate src/dst/salt).
func FlowHash(src, dst, salt int) uint64 {
	h := uint64(1469598103934665603)
	for _, v := range [3]int{src, dst, salt} {
		for i := 0; i < 8; i++ {
			h ^= uint64(v>>(8*i)) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// AveragePathLength returns the mean hop count of the first (shortest) path
// over all ingress pairs in the table.
func (tb *Table) AveragePathLength() float64 {
	var total, count int
	for _, paths := range tb.Paths {
		if len(paths) > 0 {
			total += paths[0].Len()
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return float64(total) / float64(count)
}

// StateCount reports per-switch network state (forwarding rule) statistics
// for §4.2's three deployment strategies.
type StateCount struct {
	// PerFlowAvg is the average per-switch rule count when every
	// server-pair path installs per-hop rules: n^2 * k * L / N.
	PerFlowAvg float64
	// PrefixAvg is the average per-switch rule count with ingress/egress
	// prefix aggregation: S^2 * k * L / N.
	PrefixAvg float64
	// PrefixMaxPerSwitch is the maximum rules on any single switch under
	// prefix aggregation, counted exactly from the table.
	PrefixMaxPerSwitch int
	// SourceRoutedIngress is the per-ingress-switch rule count under
	// source routing: S * k.
	SourceRoutedIngress int
	// SourceRoutedTransit is the per-transit-switch rule count under
	// source routing: D * C (diameter x port count).
	SourceRoutedTransit int
}

// PrefixRulesPerSwitch counts, per switch, the forwarding rules installed
// under ingress/egress prefix aggregation: one rule per (ingress, egress,
// path) triple on every switch the path traverses — the accounting the
// testbed's OpenFlow 1.0 prefix-matching implementation uses (§5.3).
func (tb *Table) PrefixRulesPerSwitch() map[int]int {
	perSwitch := make(map[int]int)
	for _, paths := range tb.Paths {
		for _, p := range paths {
			for _, n := range p.Nodes {
				perSwitch[n]++
			}
		}
	}
	return perSwitch
}

// TotalPrefixRules sums PrefixRulesPerSwitch over all switches.
func (tb *Table) TotalPrefixRules() int {
	total := 0
	//flatvet:ordered integer sum is order-independent
	for _, c := range tb.PrefixRulesPerSwitch() {
		total += c
	}
	return total
}

// CountStates computes the state statistics for the table's topology.
// portCount is the switch port count C used for the transit rule bound.
func (tb *Table) CountStates(portCount int) StateCount {
	t := tb.topo
	nServers := len(t.Servers())
	nSwitches := len(t.Switches())
	S := len(tb.Ingress)

	perSwitch := tb.PrefixRulesPerSwitch()
	var totalHops int
	var totalPaths int
	for _, paths := range tb.Paths {
		for _, p := range paths {
			totalHops += len(p.Nodes)
			totalPaths++
		}
	}
	maxRules := 0
	//flatvet:ordered integer max over values is order-independent
	for _, c := range perSwitch {
		if c > maxRules {
			maxRules = c
		}
	}
	avgLen := 0.0
	if totalPaths > 0 {
		avgLen = float64(totalHops) / float64(totalPaths)
	}
	diam := t.G.Diameter(tb.Ingress)
	return StateCount{
		PerFlowAvg:          float64(nServers) * float64(nServers) * float64(tb.K) * avgLen / float64(nSwitches),
		PrefixAvg:           float64(S) * float64(S) * float64(tb.K) * avgLen / float64(nSwitches),
		PrefixMaxPerSwitch:  maxRules,
		SourceRoutedIngress: S * tb.K,
		SourceRoutedTransit: diam * portCount,
	}
}

// DirectedLinkIDs converts a path into directed capacity slot indices for
// full-duplex links: slot 2*link+0 is the A->B direction, 2*link+1 is
// B->A. Rate allocators index capacities with these slots so the two
// directions of a 10 Gbps link each carry 10 Gbps, as on real hardware.
func DirectedLinkIDs(g *graph.Graph, p graph.Path) []int {
	out := make([]int, len(p.Links))
	for i, id := range p.Links {
		l := g.Link(id)
		dir := 0
		if p.Nodes[i] != l.A {
			dir = 1
		}
		out[i] = 2*id + dir
	}
	return out
}

// DirectedCaps expands per-link capacities into the directed slot array
// DirectedLinkIDs indexes.
func DirectedCaps(g *graph.Graph) []float64 {
	links := g.Links()
	caps := make([]float64, 2*len(links))
	for i, l := range links {
		caps[2*i] = l.Capacity
		caps[2*i+1] = l.Capacity
	}
	return caps
}

// WithK returns a view of the table truncated to the first k paths per
// pair (paths are ordered shortest-first, so the view equals a table built
// with the smaller k). The view shares storage with the original.
func (tb *Table) WithK(k int) *Table {
	if k >= tb.K {
		return tb
	}
	paths := make([][]graph.Path, len(tb.Paths))
	for i, ps := range tb.Paths {
		paths[i] = ps[:min(k, len(ps))]
	}
	return &Table{K: k, Ingress: tb.Ingress, Paths: paths, topo: tb.topo}
}
