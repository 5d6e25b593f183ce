package core

import (
	"fmt"

	"flattree/internal/topo"
)

// Realization is the concrete topology produced by a converter
// configuration, plus lookup tables the routing and control layers need.
type Realization struct {
	// Topo is the realized network. Node order is deterministic: core
	// switches, then per pod edge switches and aggregation switches, then
	// all servers (pod by pod, edge by edge, slot by slot). Server order
	// is identical in every mode: conversion moves cables, not machines.
	Topo *topo.Topology
	// EdgeID[pod][j] is the node ID of edge switch j of the pod.
	EdgeID [][]int
	// AggID[pod][i] is the node ID of aggregation switch i of the pod.
	AggID [][]int
	// CoreID[c] is the node ID of core switch c.
	CoreID []int
	// ServerID[pod][j][s] is the node ID of server slot s of edge column
	// j (slot numbering: blade A rows, then blade B rows, then directly
	// attached servers).
	ServerID [][][]int
	// Modes is the pod-mode assignment the realization was built from.
	Modes []Mode
}

// Realize builds the physical topology for the network's current converter
// configuration.
//
// Construction rules (one per architecture element):
//
//   - pod-internal edge-agg Clos links are always present: converters
//     intercept only edge-server and agg-core links (§2.2);
//   - each 4-port converter of pair (E_j, A_{j/r}) owns server slot
//     row (blade A) and core connector index m+row;
//   - each 6-port converter owns server slot n+row and core connector
//     index row (blade B connectors come first in the group, §3.2);
//   - remaining core connectors (indices m+n .. g-1) wire A_{j/r} to the
//     core directly; remaining server slots attach to E_j directly;
//   - 6-port converters in side/cross configuration contribute inter-pod
//     links following the §3.3 shifted pairing; each pair is realized
//     once (by the left-blade converter of the higher pod).
func (nw *Network) Realize() *Realization {
	cp := nw.clos
	t := topo.NewTopology(fmt.Sprintf("flat-tree(%s)", cp.Name))
	t.SetNumPods(cp.Pods)
	g := nw.CoreGroupSize()
	n, m := nw.opt.N, nw.opt.M

	r := &Realization{Topo: t, Modes: nw.PodModes()}
	r.CoreID = make([]int, cp.Cores)
	for c := range r.CoreID {
		r.CoreID[c] = t.AddNode(topo.Core, -1)
	}
	r.EdgeID = make([][]int, cp.Pods)
	r.AggID = make([][]int, cp.Pods)
	for pod := 0; pod < cp.Pods; pod++ {
		r.EdgeID[pod] = make([]int, cp.EdgesPerPod)
		r.AggID[pod] = make([]int, cp.AggsPerPod)
		for j := 0; j < cp.EdgesPerPod; j++ {
			id := t.AddNode(topo.Edge, pod)
			t.Nodes[id].LocalIndex = j
			r.EdgeID[pod][j] = id
		}
		for i := 0; i < cp.AggsPerPod; i++ {
			id := t.AddNode(topo.Agg, pod)
			t.Nodes[id].LocalIndex = i
			r.AggID[pod][i] = id
		}
	}
	// Servers in globally stable order.
	r.ServerID = make([][][]int, cp.Pods)
	for pod := 0; pod < cp.Pods; pod++ {
		r.ServerID[pod] = make([][]int, cp.EdgesPerPod)
		for j := 0; j < cp.EdgesPerPod; j++ {
			r.ServerID[pod][j] = make([]int, cp.ServersPerEdge)
			for s := 0; s < cp.ServersPerEdge; s++ {
				r.ServerID[pod][j][s] = t.AddNode(topo.Server, pod)
			}
		}
	}

	// Pod-internal Clos mesh.
	mult := cp.EdgeAggMultiplicity()
	for pod := 0; pod < cp.Pods; pod++ {
		for j := 0; j < cp.EdgesPerPod; j++ {
			for i := 0; i < cp.AggsPerPod; i++ {
				for k := 0; k < mult; k++ {
					t.AddLink(r.EdgeID[pod][j], r.AggID[pod][i])
				}
			}
		}
	}

	// Converter-mediated and direct links.
	for pod := 0; pod < cp.Pods; pod++ {
		for j := 0; j < cp.EdgesPerPod; j++ {
			edge := r.EdgeID[pod][j]
			agg := r.AggID[pod][j/cp.R()]

			// Blade A: 4-port converters, rows 0..n-1.
			for i := 0; i < n; i++ {
				server := r.ServerID[pod][j][i]
				coreSw := r.CoreID[nw.CoreFor(pod, j, m+i)]
				switch cfg := nw.configOf(FourPort, pod, j, i); cfg {
				case ConfigDefault:
					t.AttachServer(server, edge)
					t.AddLink(agg, coreSw)
				case ConfigLocal:
					t.AttachServer(server, agg)
					t.AddLink(edge, coreSw)
				default:
					panic(fmt.Sprintf("core: invalid 4-port config %v", cfg))
				}
			}

			// Blade B: 6-port converters, rows 0..m-1.
			for i := 0; i < m; i++ {
				server := r.ServerID[pod][j][n+i]
				coreSw := r.CoreID[nw.CoreFor(pod, j, i)]
				switch cfg := nw.configOf(SixPort, pod, j, i); cfg {
				case ConfigDefault:
					t.AttachServer(server, edge)
					t.AddLink(agg, coreSw)
				case ConfigLocal:
					t.AttachServer(server, agg)
					t.AddLink(edge, coreSw)
				case ConfigSide, ConfigCross:
					t.AttachServer(server, coreSw)
					nw.addSideLinks(r, pod, j, i, cfg)
				}
			}

			// Direct servers (slots n+m..) and direct agg-core connectors.
			for s := n + m; s < cp.ServersPerEdge; s++ {
				t.AttachServer(r.ServerID[pod][j][s], edge)
			}
			for idx := n + m; idx < g; idx++ {
				t.AddLink(agg, r.CoreID[nw.CoreFor(pod, j, idx)])
			}
		}
	}
	return r
}

// addSideLinks realizes the two inter-pod links of a 6-port converter pair
// in side or cross configuration. To add each physical pair exactly once,
// only the left-blade converter of each pair emits links (its partner is
// the right blade of the neighboring pod).
func (nw *Network) addSideLinks(r *Realization, pod, edgeCol, row int, cfg Config) {
	half := nw.clos.EdgesPerPod / 2
	if edgeCol >= half {
		return // right-blade converter: its left-blade partner emits the links
	}
	ppod, pEdgeCol, pRow, ok := nw.SidePartner(pod, edgeCol, row)
	if !ok {
		return
	}
	// Consistency: the partner must be in the same side/cross config
	// (configOf guarantees this when both pods are global).
	pcfg := nw.configOf(SixPort, ppod, pEdgeCol, pRow)
	if pcfg != cfg {
		panic(fmt.Sprintf("core: side pair config mismatch %v vs %v", cfg, pcfg))
	}
	e := r.EdgeID[pod][edgeCol]
	a := r.AggID[pod][edgeCol/nw.clos.R()]
	pe := r.EdgeID[ppod][pEdgeCol]
	pa := r.AggID[ppod][pEdgeCol/nw.clos.R()]
	if cfg == ConfigSide {
		// Peer-wise: E-E', A-A'.
		r.Topo.AddLink(e, pe)
		r.Topo.AddLink(a, pa)
	} else {
		// Crossed: E-A', A-E'.
		r.Topo.AddLink(e, pa)
		r.Topo.AddLink(a, pe)
	}
}
