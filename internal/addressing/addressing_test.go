package addressing

import (
	"testing"
	"testing/quick"

	"flattree/internal/core"
	"flattree/internal/routing"
)

// TestFigure5Addresses reproduces the paper's Figure 5c bit-for-bit: the
// striped server connects to switch 3 (global, k=16), switch 8 (local,
// k=8), and switch 5 (Clos, k=4), with server IDs 2, 1, 0.
func TestFigure5Addresses(t *testing.T) {
	cases := []struct {
		topoID, switchID, serverID, k int
		want                          []string
	}{
		{0, 3, 2, 16, []string{"10.0.24.2", "10.0.25.2", "10.0.26.2", "10.0.27.2"}},
		{1, 8, 1, 8, []string{"10.0.64.65", "10.0.65.65", "10.0.66.65"}},
		{2, 5, 0, 4, []string{"10.0.40.128", "10.0.41.128"}},
	}
	for _, c := range cases {
		addrs, err := AddressesFor(c.switchID, c.serverID, c.topoID, c.k)
		if err != nil {
			t.Fatal(err)
		}
		if len(addrs) != len(c.want) {
			t.Fatalf("topo %d: %d addresses, want %d", c.topoID, len(addrs), len(c.want))
		}
		for i, a := range addrs {
			if a.String() != c.want[i] {
				t.Errorf("topo %d addr %d = %s, want %s", c.topoID, i, a, c.want[i])
			}
		}
	}
}

func TestAddressRoundTrip(t *testing.T) {
	f := func(sw, path, topoID, srv uint16) bool {
		s, p, tp, sv := int(sw)&MaxSwitchID, int(path)&MaxPathID, int(topoID)&MaxTopoID, int(srv)&MaxServerID
		a, err := MakeAddress(s, p, tp, sv)
		if err != nil {
			return false
		}
		return a.SwitchID() == s && a.PathID() == p && a.TopoID() == tp && a.ServerID() == sv &&
			byte(a>>24) == HeadingOctet
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMakeAddressValidation(t *testing.T) {
	for _, bad := range [][4]int{
		{MaxSwitchID + 1, 0, 0, 0},
		{0, MaxPathID + 1, 0, 0},
		{0, 0, MaxTopoID + 1, 0},
		{0, 0, 0, MaxServerID + 1},
		{-1, 0, 0, 0},
	} {
		if _, err := MakeAddress(bad[0], bad[1], bad[2], bad[3]); err == nil {
			t.Errorf("MakeAddress%v accepted", bad)
		}
	}
}

func TestPrefix24SharedPerSwitch(t *testing.T) {
	// All servers under one switch with the same path ID share a /24-style
	// prefix — the aggregation §4.2.1 relies on.
	a1, _ := MakeAddress(7, 2, 0, 0)
	a2, _ := MakeAddress(7, 2, 0, 63)
	if a1.Prefix24() != a2.Prefix24() {
		t.Fatalf("prefixes differ: %s vs %s", a1.Prefix24(), a2.Prefix24())
	}
	b, _ := MakeAddress(8, 2, 0, 0)
	if a1.Prefix24() == b.Prefix24() {
		t.Fatal("different switches share a prefix")
	}
}

func TestAddressesPerServer(t *testing.T) {
	for _, c := range []struct{ k, want int }{
		{1, 1}, {2, 2}, {4, 2}, {8, 3}, {9, 3}, {12, 4}, {16, 4}, {64, 8}, {100, 8}, {0, 0},
	} {
		if got := AddressesPerServer(c.k); got != c.want {
			t.Errorf("AddressesPerServer(%d) = %d, want %d", c.k, got, c.want)
		}
	}
}

func TestSubflows(t *testing.T) {
	src, _ := AddressesFor(1, 0, 0, 8) // 3 addresses
	dst, _ := AddressesFor(2, 0, 0, 8)
	subs := Subflows(src, dst, 8)
	if len(subs) != 8 {
		t.Fatalf("subflows = %d, want 8 (full mesh 9 truncated to k)", len(subs))
	}
	seen := map[SubflowPair]bool{}
	for _, s := range subs {
		if seen[s] {
			t.Fatal("duplicate subflow")
		}
		seen[s] = true
	}
}

func TestMACEncodeDecode(t *testing.T) {
	ports := []int{3, 255, 0, 17}
	m, err := EncodeRoute(ports)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ports {
		if got := m.PortAt(i); got != p {
			t.Fatalf("PortAt(%d) = %d, want %d", i, got, p)
		}
	}
	if _, err := EncodeRoute(make([]int, 7)); err == nil {
		t.Fatal("7-hop route accepted")
	}
	if _, err := EncodeRoute([]int{256}); err == nil {
		t.Fatal("port 256 accepted")
	}
	if m.String() != "03:ff:00:11:00:00" {
		t.Fatalf("MAC string = %s", m)
	}
}

func TestMaskForTTL(t *testing.T) {
	// §4.2.2's example: TTL 253 is the third hop; mask selects byte 2.
	mask, err := MaskForTTL(253)
	if err != nil {
		t.Fatal(err)
	}
	if mask != MAC(0xff)<<24 {
		t.Fatalf("mask = %012x, want 0000ff000000", uint64(mask))
	}
	if HopForTTL(253) != 2 {
		t.Fatalf("HopForTTL(253) = %d, want 2", HopForTTL(253))
	}
	if _, err := MaskForTTL(100); err == nil {
		t.Fatal("TTL outside window accepted")
	}
}

func TestTransitRulesBoundAndLookup(t *testing.T) {
	rules, err := TransitRules(3, 48)
	if err != nil {
		t.Fatal(err)
	}
	// D x C rules (§4.2.2).
	if len(rules) != 3*48 {
		t.Fatalf("rules = %d, want %d", len(rules), 3*48)
	}
	mac, _ := EncodeRoute([]int{5, 47, 12})
	for hop, want := range []int{5, 47, 12} {
		port, ok := LookupTransit(rules, mac, InitialTTL-hop)
		if !ok || port != want {
			t.Fatalf("hop %d: port %d ok=%v, want %d", hop, port, ok, want)
		}
	}
	if _, err := TransitRules(7, 48); err == nil {
		t.Fatal("diameter beyond MAC capacity accepted")
	}
	if _, err := TransitRules(3, 512); err == nil {
		t.Fatal("512 ports accepted")
	}
}

// TestSourceRouteWalk verifies end-to-end that encoding a k-shortest path
// as a MAC and walking the TTL-masked hops reproduces the path on the
// realized flat-tree example network.
func TestSourceRouteWalk(t *testing.T) {
	nw, err := core.ExampleNetwork()
	if err != nil {
		t.Fatal(err)
	}
	nw.SetMode(core.ModeGlobal)
	r := nw.Realize()
	tb := routing.BuildKShortest(r.Topo, 4)
	checked := 0
	for i, paths := range tb.Paths {
		pair := tb.Pair(i)
		for _, p := range paths {
			ports, err := RouteForPath(r.Topo, p)
			if err != nil {
				t.Fatal(err)
			}
			if len(ports) > MaxHops {
				continue
			}
			mac, err := EncodeRoute(ports)
			if err != nil {
				t.Fatal(err)
			}
			nodes, err := Walk(r.Topo, pair.Src, mac, len(ports))
			if err != nil {
				t.Fatal(err)
			}
			for i := range nodes {
				if nodes[i] != p.Nodes[i] {
					t.Fatalf("walk diverged at hop %d: %v vs %v", i, nodes, p.Nodes)
				}
			}
			checked++
		}
		if checked > 200 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no paths checked")
	}
}

func TestAssign(t *testing.T) {
	nw, err := core.ExampleNetwork()
	if err != nil {
		t.Fatal(err)
	}
	for topoID, mode := range []core.Mode{core.ModeGlobal, core.ModeLocal, core.ModeClos} {
		nw.SetMode(mode)
		r := nw.Realize()
		k := []int{4, 4, 4}[topoID]
		a, err := Assign(r.Topo, topoID, k)
		if err != nil {
			t.Fatal(err)
		}
		// Every server gets ceil(sqrt(4)) = 2 addresses.
		for _, s := range r.Topo.Servers() {
			addrs := a.Addrs[s]
			if len(addrs) != 2 {
				t.Fatalf("mode %v: server %d has %d addresses, want 2", mode, s, len(addrs))
			}
			// Address switch ID must match the attached switch's ordinal.
			sw := r.Topo.AttachedSwitch(s)
			if addrs[0].SwitchID() != a.SwitchID[sw] {
				t.Fatalf("mode %v: address switch ID %d != %d", mode, addrs[0].SwitchID(), a.SwitchID[sw])
			}
			if addrs[0].TopoID() != topoID {
				t.Fatalf("mode %v: topo ID %d", mode, addrs[0].TopoID())
			}
		}
		// Addresses are unique network-wide.
		seen := map[Address]bool{}
		for _, addrs := range a.Addrs {
			for _, ad := range addrs {
				if seen[ad] {
					t.Fatalf("mode %v: duplicate address %s", mode, ad)
				}
				seen[ad] = true
			}
		}
		subs := Subflows(a.Addrs[r.Topo.Servers()[0]], a.Addrs[r.Topo.Servers()[23]], a.K)
		if len(subs) != 4 {
			t.Fatalf("subflows = %d, want 4", len(subs))
		}
		if got := len(seen); got != 48 {
			t.Fatalf("total addresses = %d, want 48", got)
		}
	}
}

// The naive assignment (§5.3): 2 addresses per server for k=4 with no
// unnecessary addresses; our scheme preconfigures 6 per server (2 per
// topology mode).
func TestAddressOverheadMatchesTestbed(t *testing.T) {
	perMode := AddressesPerServer(4)
	if perMode != 2 {
		t.Fatalf("addresses per mode = %d, want 2", perMode)
	}
	if total := perMode * 3; total != 6 {
		t.Fatalf("preconfigured addresses per server = %d, want 6", total)
	}
}

// SwitchID extracts the 13-bit ingress/egress switch ID.
func (a Address) SwitchID() int {
	return int(a>>(PathBits+TopoBits+ServerBits)) & MaxSwitchID
}

// PathID extracts the 3-bit path ID.
func (a Address) PathID() int { return int(a>>(TopoBits+ServerBits)) & MaxPathID }

// TopoID extracts the 2-bit topology mode ID.
func (a Address) TopoID() int { return int(a>>ServerBits) & MaxTopoID }
