// Package addressing implements the flat-tree control plane's state
// aggregation machinery (§4): the architecture-specific IPv4 address space
// of Figure 5, per-mode server address assignment, MPTCP full-mesh subflow
// enumeration, and OpenFlow-compatible source routing that encodes paths
// into the source MAC address with TTL-indexed masks (§4.2.2).
package addressing

import (
	"fmt"
	"math"
)

// Field widths of the flat-tree address space (Figure 5a): a fixed
// 10.0.0.0/8 heading octet, then 13 bits of ingress/egress switch ID,
// 3 bits of path ID, 2 bits of topology mode, and 6 bits of server ID.
const (
	SwitchBits = 13
	PathBits   = 3
	TopoBits   = 2
	ServerBits = 6

	MaxSwitchID = 1<<SwitchBits - 1 // 8191 switches ("8196" in the paper's prose)
	MaxPathID   = 1<<PathBits - 1   // 8 addresses => up to 64 concurrent paths
	MaxTopoID   = 1<<TopoBits - 1
	MaxServerID = 1<<ServerBits - 1 // 64 servers per ingress switch
)

// HeadingOctet is the fixed first octet (10 = 0x0A).
const HeadingOctet = 10

// Address is a flat-tree IPv4 address.
type Address uint32

// MakeAddress packs the four fields into an address. Topology IDs follow
// the paper's example: 0 = global, 1 = local, 2 = Clos.
func MakeAddress(switchID, pathID, topoID, serverID int) (Address, error) {
	if switchID < 0 || switchID > MaxSwitchID {
		return 0, fmt.Errorf("addressing: switch ID %d out of 13-bit range", switchID)
	}
	if pathID < 0 || pathID > MaxPathID {
		return 0, fmt.Errorf("addressing: path ID %d out of 3-bit range", pathID)
	}
	if topoID < 0 || topoID > MaxTopoID {
		return 0, fmt.Errorf("addressing: topology ID %d out of 2-bit range", topoID)
	}
	if serverID < 0 || serverID > MaxServerID {
		return 0, fmt.Errorf("addressing: server ID %d out of 6-bit range", serverID)
	}
	return Address(HeadingOctet<<24 |
		uint32(switchID)<<(PathBits+TopoBits+ServerBits) |
		uint32(pathID)<<(TopoBits+ServerBits) |
		uint32(topoID)<<ServerBits |
		uint32(serverID)), nil
}

// ServerID extracts the 6-bit server ID.
func (a Address) ServerID() int { return int(a) & MaxServerID }

// String renders the dotted-quad form.
func (a Address) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// Prefix24 returns the address with the last octet cleared — the /24-style
// prefix matched at ingress/egress switches. With the Figure 5a layout the
// switch ID and path ID land entirely in the first three octets.
func (a Address) Prefix24() Address { return a &^ 0xff }

// AddressesPerServer returns how many IP addresses each server needs for k
// concurrent paths: MPTCP's full-mesh subflows give (#addresses)^2 paths,
// so the count is ceil(sqrt(k)) (§4.1).
func AddressesPerServer(k int) int {
	if k < 1 {
		return 0
	}
	n := int(math.Ceil(math.Sqrt(float64(k))))
	if n > MaxPathID+1 {
		n = MaxPathID + 1
	}
	return n
}

// AddressesFor returns the address list of one server under one topology
// mode, with path IDs 0..AddressesPerServer(k)-1 (Figure 5c).
func AddressesFor(switchID, serverID, topoID, k int) ([]Address, error) {
	n := AddressesPerServer(k)
	out := make([]Address, 0, n)
	for p := 0; p < n; p++ {
		a, err := MakeAddress(switchID, p, topoID, serverID)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// SubflowPair is one MPTCP subflow's source/destination address pair.
type SubflowPair struct{ Src, Dst Address }

// Subflows enumerates the full-mesh subflow pairs between two address
// lists, truncated to at most k subflows in deterministic (src-major)
// order. MPTCP allocates no traffic to subflows beyond the routed set, so
// the routing logic is limited to the first k combinations (§4.1).
func Subflows(src, dst []Address, k int) []SubflowPair {
	var out []SubflowPair
	for _, s := range src {
		for _, d := range dst {
			if len(out) == k {
				return out
			}
			out = append(out, SubflowPair{s, d})
		}
	}
	return out
}
