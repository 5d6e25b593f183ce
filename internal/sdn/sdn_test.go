package sdn

import (
	"errors"
	"fmt"
	"testing"

	"flattree/internal/addressing"
	"flattree/internal/core"
	"flattree/internal/routing"
	"flattree/internal/topo"
)

// fabricFor compiles the data plane for the example network in one mode.
func fabricFor(t *testing.T, mode core.Mode, k, capacity int) (*core.Realization, *routing.Table, *addressing.Assignment, *Fabric) {
	t.Helper()
	nw, err := core.ExampleNetwork()
	if err != nil {
		t.Fatal(err)
	}
	nw.SetMode(mode)
	r := nw.Realize()
	table := routing.BuildKShortest(r.Topo, k)
	assign, err := addressing.Assign(r.Topo, int(mode), k)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Compile(r.Topo, table, assign, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return r, table, assign, f
}

func TestForwardFollowsKShortestPaths(t *testing.T) {
	r, table, assign, f := fabricFor(t, core.ModeGlobal, 4, 0)
	servers := r.Topo.Servers()
	checked := 0
	for _, src := range servers[:6] {
		for _, dst := range servers[18:] {
			sSw, dSw := r.Topo.AttachedSwitch(src), r.Topo.AttachedSwitch(dst)
			if sSw == dSw {
				continue
			}
			paths := table.SwitchPaths(sSw, dSw)
			for si := range paths {
				if si >= 4 {
					break
				}
				pkt, err := subflowPacket(assign, table.K, src, dst, si)
				if err != nil {
					t.Fatal(err)
				}
				got, err := forward(f, r.Topo, assign, pkt)
				if err != nil {
					t.Fatalf("%d->%d subflow %d: %v", src, dst, si, err)
				}
				want := paths[si].Nodes
				if len(got) != len(want) {
					t.Fatalf("subflow %d path length %d, want %d", si, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("subflow %d diverged at hop %d: %v vs %v", si, i, got, want)
					}
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no packets forwarded")
	}
}

func TestDifferentSubflowsTakeDifferentPaths(t *testing.T) {
	r, table, assign, f := fabricFor(t, core.ModeGlobal, 4, 0)
	servers := r.Topo.Servers()
	// Find a pair with >= 2 distinct paths and confirm the packet paths
	// differ between subflows.
	for _, src := range servers {
		for _, dst := range servers {
			sSw, dSw := r.Topo.AttachedSwitch(src), r.Topo.AttachedSwitch(dst)
			if sSw == dSw {
				continue
			}
			paths := table.SwitchPaths(sSw, dSw)
			if len(paths) < 2 {
				continue
			}
			p0, err := subflowPacket(assign, table.K, src, dst, 0)
			if err != nil {
				t.Fatal(err)
			}
			p1, err := subflowPacket(assign, table.K, src, dst, 1)
			if err != nil {
				t.Fatal(err)
			}
			w0, err := forward(f, r.Topo, assign, p0)
			if err != nil {
				t.Fatal(err)
			}
			w1, err := forward(f, r.Topo, assign, p1)
			if err != nil {
				t.Fatal(err)
			}
			same := len(w0) == len(w1)
			if same {
				for i := range w0 {
					if w0[i] != w1[i] {
						same = false
						break
					}
				}
			}
			if same {
				t.Fatalf("subflows 0 and 1 took identical paths %v", w0)
			}
			return
		}
	}
	t.Fatal("no multi-path pair found")
}

func TestRuleCountsMatchRoutingAccounting(t *testing.T) {
	// The compiled fabric's max table must track the routing layer's
	// prefix-rule accounting (same counting, §5.3).
	_, table, _, f := fabricFor(t, core.ModeClos, 4, 0)
	perSwitch := table.PrefixRulesPerSwitch()
	for sw, want := range perSwitch {
		// Compile adds one delivery rule per (ingress pair, subflow)
		// terminating at sw, and skips subflows beyond the distinct path
		// count, so the table is bounded by the accounting value plus
		// its delivery rules.
		got := f.Table(sw).Len()
		if got > want+len(table.Ingress)*table.K {
			t.Fatalf("switch %d: %d rules exceeds accounting bound %d", sw, got, want)
		}
	}
}

func TestCapacityOverflow(t *testing.T) {
	// A 16-rule TCAM cannot hold the testbed's Clos-mode tables — the
	// §4 overflow made concrete.
	nw, err := core.ExampleNetwork()
	if err != nil {
		t.Fatal(err)
	}
	nw.SetMode(core.ModeClos)
	r := nw.Realize()
	table := routing.BuildKShortest(r.Topo, 4)
	assign, err := addressing.Assign(r.Topo, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Compile(r.Topo, table, assign, 16)
	if !errors.Is(err, ErrTableFull) {
		t.Fatalf("expected ErrTableFull, got %v", err)
	}
}

func TestNaiveExplosion(t *testing.T) {
	// Naive per-flow state must exceed prefix-aggregated state by about
	// (servers per ingress switch)^2; on the Clos-mode testbed that is 9x.
	r, table, _, f := fabricFor(t, core.ModeClos, 4, 0)
	naive := NaiveRuleCount(r.Topo, table)
	prefix := f.TotalRules()
	if naive <= prefix*4 {
		t.Fatalf("naive %d not clearly above prefix %d", naive, prefix)
	}
}

func TestFlowTableBasics(t *testing.T) {
	ft := NewFlowTable(1)
	a1, _ := addressing.MakeAddress(1, 0, 0, 0)
	a2, _ := addressing.MakeAddress(2, 0, 0, 0)
	a3, _ := addressing.MakeAddress(3, 0, 0, 0)
	if err := ft.Install(Rule{SrcPrefix: a1, DstPrefix: a2, Action: Action{OutLink: 7}}); err != nil {
		t.Fatal(err)
	}
	// Overwrite in place is allowed at capacity.
	if err := ft.Install(Rule{SrcPrefix: a1, DstPrefix: a2, Action: Action{OutLink: 9}}); err != nil {
		t.Fatal(err)
	}
	if err := ft.Install(Rule{SrcPrefix: a1, DstPrefix: a3}); !errors.Is(err, ErrTableFull) {
		t.Fatalf("expected ErrTableFull, got %v", err)
	}
	act, ok := ft.Lookup(Packet{Src: a1, Dst: a2})
	if !ok || act.OutLink != 9 {
		t.Fatalf("lookup = %+v ok=%v", act, ok)
	}
	if _, ok := ft.Lookup(Packet{Src: a2, Dst: a1}); ok {
		t.Fatal("reverse direction matched")
	}
}

// Table returns one switch's flow table.
func (f *Fabric) Table(sw int) *FlowTable { return f.tables[sw] }

// forward walks a packet from the source server's switch through the
// fabric's flow tables until delivery, returning the switch-level path.
// It resolves the packet's servers from the address assignment of the
// topology the fabric was compiled for, and errors on an unknown address,
// a table miss or a loop.
func forward(f *Fabric, t *topo.Topology, assign *addressing.Assignment, p Packet) ([]int, error) {
	serverByAddr := map[addressing.Address]int{}
	for server, addrs := range assign.Addrs {
		for _, a := range addrs {
			serverByAddr[a] = server
		}
	}
	srcServer, ok := serverByAddr[p.Src]
	if !ok {
		return nil, fmt.Errorf("sdn: unknown source address %v", p.Src)
	}
	dstServer, ok := serverByAddr[p.Dst]
	if !ok {
		return nil, fmt.Errorf("sdn: unknown destination address %v", p.Dst)
	}
	cur := t.AttachedSwitch(srcServer)
	path := []int{cur}
	for hops := 0; hops < 16; hops++ {
		act, ok := f.tables[cur].Lookup(p)
		if !ok {
			return nil, fmt.Errorf("sdn: table miss at switch %d for %v->%v", cur, p.Src, p.Dst)
		}
		if act.Deliver {
			if cur != t.AttachedSwitch(dstServer) {
				return nil, fmt.Errorf("sdn: delivered at %d but server %d lives on %d",
					cur, dstServer, t.AttachedSwitch(dstServer))
			}
			return path, nil
		}
		cur = t.G.Link(act.OutLink).Other(cur)
		path = append(path, cur)
	}
	return nil, fmt.Errorf("sdn: forwarding loop for %v->%v", p.Src, p.Dst)
}

// subflowPacket builds the packet for one of the k routed subflows
// between two servers.
func subflowPacket(assign *addressing.Assignment, k, srcServer, dstServer, subflow int) (Packet, error) {
	subs := addressing.Subflows(assign.Addrs[srcServer], assign.Addrs[dstServer], k)
	if subflow < 0 || subflow >= len(subs) {
		return Packet{}, fmt.Errorf("sdn: subflow %d of %d", subflow, len(subs))
	}
	return Packet{Src: subs[subflow].Src, Dst: subs[subflow].Dst}, nil
}

// Lookup matches a packet by its address prefixes.
func (ft *FlowTable) Lookup(p Packet) (Action, bool) {
	a, ok := ft.rules[[2]addressing.Address{p.Src.Prefix24(), p.Dst.Prefix24()}]
	return a, ok
}
