// Package flattree is a from-scratch implementation of the flat-tree
// convertible data center network architecture (Xia et al., SIGCOMM 2017),
// together with every substrate its evaluation depends on: topology
// builders, k-shortest-path routing with MPTCP and ECMP models, the
// flat-tree addressing scheme and source routing, multi-commodity-flow LP
// approximations, a flow-level network simulator, traffic generators, a
// conversion control plane, and an emulated 20-switch/24-server testbed.
//
// This package is the public facade. A Network couples a flat-tree layout
// (Clos parameters plus converter-switch blades) with its controller, so a
// user can build a convertible network, switch it between Clos, local
// random graph, and global random graph modes (or per-pod hybrids), route
// on the realized topology, and measure it:
//
//	nw, err := flattree.NewNetwork(flattree.Example(), flattree.Options{N: 1, M: 1})
//	rep, err := nw.Convert(flattree.ModeGlobal)   // rewire at run time
//	topo := nw.Topology()                          // realized topology
//	paths := nw.Routes().ServerPaths(src, dst)     // k-shortest paths
//
// A route lookup with a node that is not an attached server answers nil
// (ServerPaths, ServerSlots) or false (ECMPServerPath) rather than
// panicking.
//
// The internal packages carry the full machinery; the experiment harness
// (cmd/flatsim, cmd/benchtables) regenerates every table and figure of the
// paper. See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-versus-measured results.
package flattree

import (
	"flattree/internal/control"
	"flattree/internal/core"
	"flattree/internal/routing"
	"flattree/internal/topo"
)

// Mode is a flat-tree operation mode (§3.5 of the paper).
type Mode = core.Mode

// Operation modes: Clos (default wiring), local (two-stage random graph
// approximation), global (network-wide random graph approximation).
const (
	ModeClos   = core.ModeClos
	ModeLocal  = core.ModeLocal
	ModeGlobal = core.ModeGlobal
)

// ClosParams describes the underlying Clos layout (Table 2
// parameterization).
type ClosParams = topo.ClosParams

// Options configure the converter blades: N 4-port and M 6-port converter
// switches per edge-aggregation pair, the pod-core wiring pattern, and the
// inter-pod side-wiring shape.
type Options = core.Options

// Wiring patterns for pod-core connectors (§3.2).
const (
	Pattern1 = core.Pattern1
	Pattern2 = core.Pattern2
)

// ConversionReport breaks down one topology conversion: converter switches
// reconfigured, OpenFlow rules deleted/installed, and the latency of each
// step (Table 3).
type ConversionReport = control.ConversionReport

// Topology is a realized network: a capacitated multigraph with node roles
// and server attachments.
type Topology = topo.Topology

// RouteTable holds k-shortest paths between all ingress/egress switches
// and expands them to server-level paths.
type RouteTable = routing.Table

// Network is a convertible flat-tree network under controller management.
type Network struct {
	ctrl *control.Controller
}

// NewNetwork validates the layout and brings the network up in Clos mode
// with k=4 routing in every mode. Use NewNetworkK for per-mode k.
func NewNetwork(clos ClosParams, opt Options) (*Network, error) {
	return NewNetworkK(clos, opt, nil)
}

// NewNetworkK brings the network up with an explicit concurrent-path count
// per mode (missing modes default to 4, matching the testbed).
func NewNetworkK(clos ClosParams, opt Options, kByMode map[Mode]int) (*Network, error) {
	nw, err := core.New(clos, opt)
	if err != nil {
		return nil, err
	}
	ctrl, err := control.NewController(nw, control.TestbedDelayModel(), kByMode)
	if err != nil {
		return nil, err
	}
	return &Network{ctrl: ctrl}, nil
}

// Example returns the paper's running example layout (Figure 2): 4 pods,
// 20 switches, 24 servers.
func Example() ClosParams { return core.ExampleClos() }

// Table2 returns the six evaluation topologies of the paper's Table 2.
func Table2() []ClosParams { return topo.Table2() }

// FatTree returns the k-ary fat-tree parameterization.
func FatTree(k int) ClosParams { return topo.FatTree(k) }

// Convert switches every pod to the given mode, reconfiguring converter
// switches and reinstalling routing state; the report carries the latency
// breakdown.
func (n *Network) Convert(m Mode) (*ConversionReport, error) {
	return n.ctrl.Convert(m)
}

// ConvertPods sets per-pod modes for hybrid operation (§3.5): zones of
// different topologies in one network.
func (n *Network) ConvertPods(modes []Mode) (*ConversionReport, error) {
	return n.ctrl.ConvertPods(modes)
}

// Mode returns the uniform network mode, or ok=false in hybrid operation.
func (n *Network) Mode() (Mode, bool) { return n.ctrl.Network().Mode() }

// PodModes returns the per-pod mode assignment.
func (n *Network) PodModes() []Mode { return n.ctrl.Network().PodModes() }

// Topology returns the realized topology for the current configuration.
func (n *Network) Topology() *Topology { return n.ctrl.Realization().Topo }

// Routes returns the installed k-shortest-path route table. Its server
// lookups answer nil for a node that is not an attached server.
func (n *Network) Routes() *RouteTable { return n.ctrl.Table() }

// MaxRulesPerSwitch reports the largest per-switch OpenFlow rule count
// under prefix aggregation — the §5.3 figure of merit.
func (n *Network) MaxRulesPerSwitch() int { return n.ctrl.MaxRulesPerSwitch() }

// Clos returns the underlying Clos parameterization.
func (n *Network) Clos() ClosParams { return n.ctrl.Network().Clos() }

// Servers returns the realized server node IDs in stable global order
// (invariant across conversions).
func (n *Network) Servers() []int { return n.Topology().Servers() }
