// Package sdn models the OpenFlow data plane of §4.2: per-switch flow
// tables with bounded capacity, the prefix-matching rule compilation the
// testbed used (§5.3), and packet forwarding over the compiled tables.
//
// It makes the paper's control-plane argument executable: naive per-flow
// rules overflow commercial table capacities even on the 24-server
// testbed, prefix aggregation divides the count by (servers per switch)²,
// and a packet addressed by the Figure 5 scheme — source and destination
// addresses selecting one of the k paths — actually traverses exactly the
// k-shortest path the controller computed.
package sdn

import (
	"fmt"

	"flattree/internal/addressing"
	"flattree/internal/routing"
	"flattree/internal/topo"
)

// Packet is the header state the flow tables match on.
type Packet struct {
	Src, Dst addressing.Address
}

// Action is what a matching rule does with a packet.
type Action struct {
	// Deliver hands the packet to the destination server.
	Deliver bool
	// OutLink is the link ID to forward on when not delivering.
	OutLink int
}

// Rule matches the /24-style prefixes of source and destination addresses
// (switch ID + path ID live in the first three octets, Figure 5a).
type Rule struct {
	SrcPrefix, DstPrefix addressing.Address
	Action               Action
}

// FlowTable is one switch's rule table with a hardware capacity.
type FlowTable struct {
	Capacity int
	rules    map[[2]addressing.Address]Action
}

// ErrTableFull reports a rule installation beyond capacity — the overflow
// §4 warns about ("the number of Openflow rules easily exceeds the
// capacity of commercial SDN switches").
var ErrTableFull = fmt.Errorf("sdn: flow table full")

// NewFlowTable returns an empty table; capacity <= 0 means unbounded.
func NewFlowTable(capacity int) *FlowTable {
	return &FlowTable{Capacity: capacity, rules: map[[2]addressing.Address]Action{}}
}

// Install adds a rule; reinstalling an identical match overwrites.
func (ft *FlowTable) Install(r Rule) error {
	key := [2]addressing.Address{r.SrcPrefix.Prefix24(), r.DstPrefix.Prefix24()}
	if _, exists := ft.rules[key]; !exists && ft.Capacity > 0 && len(ft.rules) >= ft.Capacity {
		return ErrTableFull
	}
	ft.rules[key] = r.Action
	return nil
}

// Len returns the installed rule count.
func (ft *FlowTable) Len() int { return len(ft.rules) }

// Fabric is the compiled data plane: a flow table per switch.
type Fabric struct {
	t      *topo.Topology
	tables map[int]*FlowTable
	assign *addressing.Assignment
	k      int
	// serverByAddr resolves a destination address to its server node.
	serverByAddr map[addressing.Address]int
}

// Compile builds the prefix-matching data plane for a realized topology:
// for every ordered ingress-switch pair and every routed subflow (address
// pair), one rule per transit switch forwarding toward the next hop, plus
// a delivery rule at the egress switch. capacity bounds each switch's
// table (0 = unbounded).
func Compile(t *topo.Topology, table *routing.Table, assign *addressing.Assignment, capacity int) (*Fabric, error) {
	f := &Fabric{
		t: t, tables: map[int]*FlowTable{}, assign: assign, k: table.K,
		serverByAddr: map[addressing.Address]int{},
	}
	for _, sw := range t.Switches() {
		f.tables[sw] = NewFlowTable(capacity)
	}
	for server, addrs := range assign.Addrs {
		for _, a := range addrs {
			f.serverByAddr[a] = server
		}
	}

	// Representative servers per ingress switch (prefixes are shared, so
	// one server per (switch, pathID) suffices to enumerate prefixes;
	// use server ID 0's addresses as the prefix carriers).
	bySwitch := map[int][]addressing.Address{}
	for server, addrs := range assign.Addrs {
		sw := t.AttachedSwitch(server)
		if len(bySwitch[sw]) == 0 || assignServerID(addrs) < assignServerID(bySwitch[sw]) {
			bySwitch[sw] = addrs
		}
	}

	for _, src := range table.Ingress {
		for _, dst := range table.Ingress {
			if src == dst {
				continue
			}
			paths := table.SwitchPaths(src, dst)
			srcAddrs, dstAddrs := bySwitch[src], bySwitch[dst]
			subs := addressing.Subflows(srcAddrs, dstAddrs, table.K)
			for si, sub := range subs {
				if si >= len(paths) {
					break // fewer distinct paths than routable subflows
				}
				p := paths[si]
				for hop, linkID := range p.Links {
					sw := p.Nodes[hop]
					err := f.tables[sw].Install(Rule{
						SrcPrefix: sub.Src, DstPrefix: sub.Dst,
						Action: Action{OutLink: linkID},
					})
					if err != nil {
						return nil, fmt.Errorf("sdn: switch %d: %w", sw, err)
					}
				}
				// Egress delivery rule.
				err := f.tables[dst].Install(Rule{
					SrcPrefix: sub.Src, DstPrefix: sub.Dst,
					Action: Action{Deliver: true},
				})
				if err != nil {
					return nil, fmt.Errorf("sdn: egress %d: %w", dst, err)
				}
			}
		}
	}
	return f, nil
}

func assignServerID(addrs []addressing.Address) int {
	if len(addrs) == 0 {
		return 1 << 30
	}
	return addrs[0].ServerID()
}

// TotalRules sums rules across switches.
func (f *Fabric) TotalRules() int {
	total := 0
	for _, ft := range f.tables {
		total += ft.Len()
	}
	return total
}

// MaxRules returns the largest per-switch table.
func (f *Fabric) MaxRules() int {
	max := 0
	for _, ft := range f.tables {
		if ft.Len() > max {
			max = ft.Len()
		}
	}
	return max
}

// NaiveRuleCount computes the per-flow (no aggregation) state a switch
// set would need: one rule per server pair per path per transit hop —
// the §4.2 explosion, reported without materializing the rules.
func NaiveRuleCount(t *topo.Topology, table *routing.Table) int {
	// Per ingress pair: (#paths x hops) transit entries; every server
	// pair under the pair multiplies it.
	perServer := map[int]int{}
	for _, s := range t.Servers() {
		perServer[t.AttachedSwitch(s)]++
	}
	total := 0
	for i, paths := range table.Paths {
		pair := table.Pair(i)
		nPairs := perServer[pair.Src] * perServer[pair.Dst]
		hops := 0
		for _, p := range paths {
			hops += len(p.Nodes)
		}
		total += nPairs * hops
	}
	return total
}
