// Package topo defines the data center topology model shared by every
// network architecture in this repository, and provides builders for the
// architectures the paper compares flat-tree against: generic Clos networks
// (Table 2 parameterization), k-ary fat-trees, Jellyfish-style random
// regular graphs, and two-stage (regional) random graphs.
//
// A Topology wraps a graph.Graph with node roles (server / edge / agg /
// core) and locality structure (pod and rack membership), which the traffic
// generators and the flat-tree conversion machinery both need.
package topo

import (
	"fmt"

	"flattree/internal/graph"
)

// Kind classifies a topology node.
type Kind int

const (
	// Server is an end host with a single uplink.
	Server Kind = iota
	// Edge is a top-of-rack (ingress/egress) switch.
	Edge
	// Agg is a pod aggregation switch.
	Agg
	// Core is a network-core switch.
	Core
)

var kindNames = [...]string{"server", "edge", "agg", "core"}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Node describes one element of the network.
type Node struct {
	ID   int
	Kind Kind
	// Pod is the pod index for edge/agg switches and servers; -1 for core
	// switches (and for switches of unstructured topologies).
	Pod int
	// Index is the node's rank within its kind (e.g. edge switch 3 of the
	// network, or server 17).
	Index int
	// LocalIndex is the node's rank within its kind inside its pod; -1
	// when not applicable.
	LocalIndex int
}

// DefaultLinkCapacity is the link bandwidth used by all builders, in Gbps.
// The paper's simulations and testbed use 10 Gbps links throughout.
const DefaultLinkCapacity = 10.0

// Topology is a data center network: a capacitated multigraph plus node
// roles and structure.
type Topology struct {
	Name  string
	G     *graph.Graph
	Nodes []Node

	servers []int
	edges   []int
	aggs    []int
	cores   []int
	// attach[nodeID] = switch the server is wired to (servers have
	// exactly one uplink in every architecture in the paper), -1 for a
	// switch or an unattached server. Indexed by node ID, one entry per
	// node.
	attach []int
	// pods is the number of pods, 0 for unstructured topologies.
	pods int
}

// NewTopology returns an empty named topology.
func NewTopology(name string) *Topology {
	return &Topology{Name: name, G: graph.New(0)}
}

// AddNode appends a node of the given kind and returns its ID.
func (t *Topology) AddNode(kind Kind, pod int) int {
	id := t.G.AddNode()
	n := Node{ID: id, Kind: kind, Pod: pod, LocalIndex: -1}
	switch kind {
	case Server:
		n.Index = len(t.servers)
		t.servers = append(t.servers, id)
	case Edge:
		n.Index = len(t.edges)
		t.edges = append(t.edges, id)
	case Agg:
		n.Index = len(t.aggs)
		t.aggs = append(t.aggs, id)
	case Core:
		n.Index = len(t.cores)
		t.cores = append(t.cores, id)
	}
	t.Nodes = append(t.Nodes, n)
	t.attach = append(t.attach, -1)
	return id
}

// AddLink wires two nodes at DefaultLinkCapacity and returns the link ID.
func (t *Topology) AddLink(a, b int) int {
	return t.G.AddLink(a, b, DefaultLinkCapacity)
}

// AttachServer wires server s to switch sw and records the attachment.
func (t *Topology) AttachServer(s, sw int) {
	if t.Nodes[s].Kind != Server {
		panic(fmt.Sprintf("topo: AttachServer: node %d is %v, not a server", s, t.Nodes[s].Kind))
	}
	if t.Nodes[sw].Kind == Server {
		panic(fmt.Sprintf("topo: AttachServer: target %d is a server", sw))
	}
	if t.attach[s] >= 0 {
		panic(fmt.Sprintf("topo: server %d attached twice", s))
	}
	t.AddLink(s, sw)
	t.attach[s] = sw
}

// Servers returns the server node IDs in index order.
func (t *Topology) Servers() []int { return t.servers }

// Edges returns the edge switch node IDs in index order.
func (t *Topology) Edges() []int { return t.edges }

// Aggs returns the aggregation switch node IDs in index order.
func (t *Topology) Aggs() []int { return t.aggs }

// Cores returns the core switch node IDs in index order.
func (t *Topology) Cores() []int { return t.cores }

// Switches returns all switch node IDs (edge, agg, core) in that order.
func (t *Topology) Switches() []int {
	out := make([]int, 0, len(t.edges)+len(t.aggs)+len(t.cores))
	out = append(out, t.edges...)
	out = append(out, t.aggs...)
	out = append(out, t.cores...)
	return out
}

// NumPods returns the number of pods (0 for unstructured topologies).
func (t *Topology) NumPods() int { return t.pods }

// SetNumPods records the pod count.
func (t *Topology) SetNumPods(p int) { t.pods = p }

// AttachedSwitch returns the switch a server is wired to. It panics for a
// node that is not an attached server.
func (t *Topology) AttachedSwitch(server int) int {
	sw, ok := t.Attachment(server)
	if !ok {
		panic(fmt.Sprintf("topo: server %d has no attachment", server))
	}
	return sw
}

// Attachment returns the switch node is wired to, and false when node is
// not an attached server: a switch, an unattached server, or an ID
// outside the topology.
func (t *Topology) Attachment(node int) (sw int, ok bool) {
	if node < 0 || node >= len(t.attach) || t.attach[node] < 0 {
		return -1, false
	}
	return t.attach[node], true
}

// Validate checks structural invariants: every server has exactly one link
// (its uplink), the graph is connected, and node bookkeeping is consistent.
func (t *Topology) Validate() error {
	if !t.G.Connected() {
		return fmt.Errorf("topo %q: graph not connected", t.Name)
	}
	for _, s := range t.servers {
		if d := t.G.Degree(s); d != 1 {
			return fmt.Errorf("topo %q: server %d has degree %d, want 1", t.Name, s, d)
		}
		if t.attach[s] < 0 {
			return fmt.Errorf("topo %q: server %d unattached", t.Name, s)
		}
	}
	for id, n := range t.Nodes {
		if n.ID != id {
			return fmt.Errorf("topo %q: node %d has ID %d", t.Name, id, n.ID)
		}
	}
	return nil
}
