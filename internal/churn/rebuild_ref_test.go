package churn

import (
	"maps"

	"flattree/internal/routing"
	"flattree/internal/topo"
)

// The full-rebuild reference the engine tests compare against: before
// route repair became incremental, the engine rebuilt the pruned
// topology on every event and translated the rebuilt table's paths back
// to the original link numbering.

// pruneWithMap rebuilds the topology without the masked links, returning
// it with a pruned-link-ID → original-link-ID map so paths computed on
// the surviving fabric translate back to the simulator's directed slots.
// Node IDs are preserved; unlike control's prune, a partitioned survivor
// is allowed — disconnected flows are the engine's subject, not an error.
func pruneWithMap(t *topo.Topology, failed map[[2]int]int) (*topo.Topology, []int) {
	remaining := make(map[[2]int]int, len(failed))
	maps.Copy(remaining, failed)
	out := topo.NewTopology(t.Name + "-churn")
	out.SetNumPods(t.NumPods())
	for _, n := range t.Nodes {
		id := out.AddNode(n.Kind, n.Pod)
		out.Nodes[id].LocalIndex = n.LocalIndex
	}
	var linkMap []int
	for id, l := range t.G.Links() {
		if t.Nodes[l.A].Kind == topo.Server || t.Nodes[l.B].Kind == topo.Server {
			continue // re-added below via AttachServer
		}
		key := pairKey(l.A, l.B)
		if remaining[key] > 0 {
			remaining[key]--
			continue // masked
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

// directedServerPaths returns the table's server-to-server paths as
// directed slot lists in the ORIGINAL graph's numbering. linkMap translates
// the table's graph to the original; nil means the table is already on it.
func directedServerPaths(table *routing.Table, linkMap []int, src, dst int) [][]int {
	out := table.ServerSlots(src, dst)
	if linkMap != nil {
		for _, dp := range out {
			for i, slot := range dp {
				dp[i] = 2*linkMap[slot/2] + slot%2
			}
		}
	}
	return out
}

// crossesDead reports whether any path uses a masked directed slot.
func crossesDead(paths [][]int, dead map[int]bool) bool {
	for _, p := range paths {
		for _, s := range p {
			if dead[s] {
				return true
			}
		}
	}
	return false
}
