package addressing

import (
	"fmt"
	"sort"

	"flattree/internal/topo"
)

// Assignment maps every server of one realized topology to its address
// list under one topology mode. Servers are keyed by node ID.
type Assignment struct {
	TopoID int
	K      int
	// Addrs[server] lists the server's addresses (path IDs ascending).
	Addrs map[int][]Address
	// SwitchID[switchNode] is the 13-bit switch ID used in addresses.
	SwitchID map[int]int
}

// Assign computes the address assignment for a realized topology: the
// ingress switch of a server is its attached switch; switch IDs are the
// switch's ordinal in Switches() order (stable across conversions because
// realizations enumerate switches identically in every mode); server IDs
// order the servers under the same ingress switch by global server index
// ("ordered from left to right", Figure 5b).
func Assign(t *topo.Topology, topoID, k int) (*Assignment, error) {
	a := &Assignment{TopoID: topoID, K: k,
		Addrs: make(map[int][]Address), SwitchID: make(map[int]int)}
	for i, sw := range t.Switches() {
		a.SwitchID[sw] = i
	}
	// Group servers by ingress switch.
	bySwitch := make(map[int][]int)
	for _, s := range t.Servers() {
		sw := t.AttachedSwitch(s)
		bySwitch[sw] = append(bySwitch[sw], s)
	}
	for sw, servers := range bySwitch {
		sort.Ints(servers)
		if len(servers) > MaxServerID+1 {
			return nil, fmt.Errorf("addressing: switch %d hosts %d servers, max %d",
				sw, len(servers), MaxServerID+1)
		}
		swID, ok := a.SwitchID[sw]
		if !ok {
			return nil, fmt.Errorf("addressing: server attached to unknown switch %d", sw)
		}
		if swID > MaxSwitchID {
			return nil, fmt.Errorf("addressing: switch ID %d exceeds 13 bits", swID)
		}
		for serverID, s := range servers {
			addrs, err := AddressesFor(swID, serverID, topoID, k)
			if err != nil {
				return nil, err
			}
			a.Addrs[s] = addrs
		}
	}
	return a, nil
}
