package addressing

import (
	"fmt"

	"flattree/internal/graph"
	"flattree/internal/topo"
)

// Source routing per §4.2.2: the ingress switch encodes a path — the list
// of next-hop output ports — into the 48-bit source MAC address, and
// transit switches select the byte to match via the packet TTL. A 48-bit
// MAC holds 6 hops of 8-bit port numbers (switches with up to 256 ports).
// No binary source-routes packets, so the model of that data plane lives
// in this test file, beside the tests in addressing_test.go that check it.

// MaxHops is the number of hops a MAC-encoded source route can carry.
const MaxHops = 6

// MAC is a 48-bit source-route label stored in the low bits of a uint64.
type MAC uint64

// EncodeRoute packs up to MaxHops output port numbers into a MAC. Hop 0
// occupies the most significant byte, matching the testbed convention that
// TTL 255 - hopIndex selects byte hopIndex.
func EncodeRoute(ports []int) (MAC, error) {
	if len(ports) > MaxHops {
		return 0, fmt.Errorf("addressing: route of %d hops exceeds %d", len(ports), MaxHops)
	}
	var m MAC
	for i, p := range ports {
		if p < 0 || p > 255 {
			return 0, fmt.Errorf("addressing: port %d out of 8-bit range at hop %d", p, i)
		}
		m |= MAC(p) << uint(8*(MaxHops-1-i))
	}
	return m, nil
}

// PortAt extracts the output port for the given hop index.
func (m MAC) PortAt(hop int) int {
	if hop < 0 || hop >= MaxHops {
		panic(fmt.Sprintf("addressing: hop %d out of range", hop))
	}
	return int(m>>uint(8*(MaxHops-1-hop))) & 0xff
}

// String renders the conventional colon-separated MAC form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x",
		byte(m>>40), byte(m>>32), byte(m>>24), byte(m>>16), byte(m>>8), byte(m))
}

// InitialTTL is the TTL a source-routed packet starts with; hop h of the
// route is matched when TTL = InitialTTL - h, so the first transit switch
// sees TTL 255 and matches byte 0.
const InitialTTL = 255

// HopForTTL returns the route hop index a transit switch matches for the
// given TTL (e.g. "if TTL equals 253 (third hop)" in §4.2.2).
func HopForTTL(ttl int) int { return InitialTTL - ttl }

// MaskForTTL returns the 48-bit mask a transit switch applies to the source
// MAC for the given TTL, e.g. TTL 253 -> 0x0000ff000000.
func MaskForTTL(ttl int) (MAC, error) {
	hop := HopForTTL(ttl)
	if hop < 0 || hop >= MaxHops {
		return 0, fmt.Errorf("addressing: TTL %d outside the %d-hop window", ttl, MaxHops)
	}
	return MAC(0xff) << uint(8*(MaxHops-1-hop)), nil
}

// PortNumber returns the output port a switch uses for a given link: the
// link's position within the switch's incident link list. This gives every
// switch a dense, stable port numbering.
func PortNumber(t *topo.Topology, sw, linkID int) (int, error) {
	for i, id := range t.G.Incident(sw) {
		if id == linkID {
			return i, nil
		}
	}
	return 0, fmt.Errorf("addressing: link %d not incident to switch %d", linkID, sw)
}

// RouteForPath converts a switch-level path into the output-port list its
// ingress switch encodes: for each node except the last, the port leading
// to the next link.
func RouteForPath(t *topo.Topology, p graph.Path) ([]int, error) {
	ports := make([]int, 0, len(p.Links))
	for i, linkID := range p.Links {
		port, err := PortNumber(t, p.Nodes[i], linkID)
		if err != nil {
			return nil, err
		}
		ports = append(ports, port)
	}
	return ports, nil
}

// TransitRule is one statically preconfigured OpenFlow rule on a transit
// switch: match (TTL, masked MAC byte) and forward to OutPort. The rule
// set is topology independent: it never changes across conversions.
type TransitRule struct {
	TTL     int
	Mask    MAC
	Value   MAC // expected masked byte value: port << position
	OutPort int
}

// TransitRules synthesizes the full static rule set for one switch with the
// given port count and network diameter: one rule per (TTL within the
// diameter window, output port) — the D x C bound of §4.2.2.
func TransitRules(diameter, portCount int) ([]TransitRule, error) {
	if diameter > MaxHops {
		return nil, fmt.Errorf("addressing: diameter %d exceeds %d encodable hops", diameter, MaxHops)
	}
	if portCount > 256 {
		return nil, fmt.Errorf("addressing: %d ports exceed 8-bit port numbers", portCount)
	}
	rules := make([]TransitRule, 0, diameter*portCount)
	for h := 0; h < diameter; h++ {
		ttl := InitialTTL - h
		mask, err := MaskForTTL(ttl)
		if err != nil {
			return nil, err
		}
		for port := 0; port < portCount; port++ {
			rules = append(rules, TransitRule{
				TTL:     ttl,
				Mask:    mask,
				Value:   MAC(port) << uint(8*(MaxHops-1-h)),
				OutPort: port,
			})
		}
	}
	return rules, nil
}

// LookupTransit simulates a transit switch's forwarding decision: apply the
// TTL-selected mask to the MAC and return the output port.
func LookupTransit(rules []TransitRule, mac MAC, ttl int) (int, bool) {
	for _, r := range rules {
		if r.TTL == ttl && mac&r.Mask == r.Value {
			return r.OutPort, true
		}
	}
	return 0, false
}

// Walk follows a source-routed MAC through the topology from the ingress
// switch, decrementing TTL per hop, and returns the switch-level node
// sequence visited. It verifies that MAC source routing reproduces the
// intended path on the actual topology.
func Walk(t *topo.Topology, ingress int, mac MAC, hops int) ([]int, error) {
	nodes := []int{ingress}
	cur := ingress
	for h := 0; h < hops; h++ {
		port := mac.PortAt(h)
		inc := t.G.Incident(cur)
		if port >= len(inc) {
			return nil, fmt.Errorf("addressing: switch %d has no port %d", cur, port)
		}
		next := t.G.Link(inc[port]).Other(cur)
		nodes = append(nodes, next)
		cur = next
	}
	return nodes, nil
}
