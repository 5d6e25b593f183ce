package routing

import (
	"fmt"
	"testing"

	"flattree/internal/core"
	"flattree/internal/topo"
)

// Two-level routing (§4, citing the fat-tree paper [12]) is the classic
// Clos-mode alternative to ECMP and SDN routing: each switch forwards
// downward by destination prefix (which edge switch the destination lives
// under) and upward by destination suffix (a deterministic hash of the
// host identifier spreading traffic over the uplinks). It needs no
// per-flow state and no controller involvement, but only works on the
// hierarchical Clos topology — which is exactly why flat-tree's global and
// local modes need the k-shortest-path machinery instead. No binary
// routes with it, so it lives beside the tests that check the paper's
// claims about it: constant table sizes and refusal off the hierarchy.

// TwoLevel holds per-switch two-level forwarding tables for a Clos-mode
// realization.
type TwoLevel struct {
	t *topo.Topology
	// downPort[sw][edgeSwitch] = link ID toward that edge switch's
	// subtree (present only where a downward route exists).
	downPort map[int]map[int]int
	// upLinks[sw] lists uplink link IDs in deterministic order; the
	// destination suffix selects one.
	upLinks map[int][]int
	// edgeOf[server] = its edge switch; suffix[server] = host index used
	// for uplink hashing.
	edgeOf map[int]int
	suffix map[int]int
}

// BuildTwoLevel constructs the tables. The realization must be
// hierarchical: every server on an edge switch (Clos mode); it returns an
// error otherwise, mirroring why the paper cannot use two-level routing
// in the flattened modes.
func BuildTwoLevel(t *topo.Topology) (*TwoLevel, error) {
	tl := &TwoLevel{
		t:        t,
		downPort: make(map[int]map[int]int),
		upLinks:  make(map[int][]int),
		edgeOf:   make(map[int]int),
		suffix:   make(map[int]int),
	}
	for i, s := range t.Servers() {
		sw := t.AttachedSwitch(s)
		if t.Nodes[sw].Kind != topo.Edge {
			return nil, fmt.Errorf("routing: two-level routing needs a Clos-mode topology; server %d sits on a %v switch",
				s, t.Nodes[sw].Kind)
		}
		tl.edgeOf[s] = sw
		tl.suffix[s] = i
	}

	// Uplinks: edge->agg and agg->core links, in link-ID order.
	for _, l := range t.G.Links() {
		na, nb := t.Nodes[l.A], t.Nodes[l.B]
		if na.Kind == topo.Server || nb.Kind == topo.Server {
			continue
		}
		// The lower-layer endpoint (edge < agg < core) owns the uplink.
		lo := l.A
		if rank(nb.Kind) < rank(na.Kind) {
			lo = l.B
		}
		tl.upLinks[lo] = append(tl.upLinks[lo], l.ID)
	}

	// Downward prefixes, built bottom-up: an edge switch's subtree is
	// itself; aggs learn edges through their down links; cores learn
	// edges through aggs.
	for _, e := range t.Edges() {
		tl.ensureDown(e)[e] = -1 // local delivery
	}
	for _, a := range t.Aggs() {
		for _, id := range t.G.Incident(a) {
			l := t.G.Link(id)
			other := l.Other(a)
			if t.Nodes[other].Kind == topo.Edge {
				tl.ensureDown(a)[other] = id
			}
		}
	}
	for _, c := range t.Cores() {
		for _, id := range t.G.Incident(c) {
			l := t.G.Link(id)
			other := l.Other(c)
			if t.Nodes[other].Kind == topo.Agg {
				//flatvet:ordered set-if-absent per edge; the winning link is fixed by the deterministic Incident order, not by this map's order
				for e := range tl.downPort[other] {
					if _, have := tl.ensureDown(c)[e]; !have {
						tl.ensureDown(c)[e] = id
					}
				}
			}
		}
	}
	return tl, nil
}

func (tl *TwoLevel) ensureDown(sw int) map[int]int {
	m := tl.downPort[sw]
	if m == nil {
		m = make(map[int]int)
		tl.downPort[sw] = m
	}
	return m
}

func rank(k topo.Kind) int {
	switch k {
	case topo.Edge:
		return 0
	case topo.Agg:
		return 1
	default:
		return 2
	}
}

// NextHop returns the link a switch forwards on for the given destination
// server: the prefix (down) table wins; otherwise the suffix selects an
// uplink. ok=false means no route (a disconnected or non-Clos topology).
func (tl *TwoLevel) NextHop(sw, dstServer int) (linkID int, deliver bool, ok bool) {
	edge := tl.edgeOf[dstServer]
	if down, have := tl.downPort[sw]; have {
		if id, have := down[edge]; have {
			if id == -1 {
				return -1, true, true // local edge: deliver to the server port
			}
			return id, false, true
		}
	}
	ups := tl.upLinks[sw]
	if len(ups) == 0 {
		return 0, false, false
	}
	return ups[tl.suffix[dstServer]%len(ups)], false, true
}

// Route walks the tables from the source server's edge switch to the
// destination and returns the switch-level node path. maxHops guards
// against loops (which a correct Clos table set never produces).
func (tl *TwoLevel) Route(srcServer, dstServer int) ([]int, error) {
	cur := tl.edgeOf[srcServer]
	path := []int{cur}
	for hops := 0; hops < 8; hops++ {
		link, deliver, ok := tl.NextHop(cur, dstServer)
		if !ok {
			return nil, fmt.Errorf("routing: no two-level route at switch %d", cur)
		}
		if deliver {
			return path, nil
		}
		cur = tl.t.G.Link(link).Other(cur)
		path = append(path, cur)
	}
	return nil, fmt.Errorf("routing: two-level routing looped for %d->%d", srcServer, dstServer)
}

// TableSizes returns per-switch (prefix, suffix) entry counts — the
// two-level state footprint, constant per switch regardless of flow count.
func (tl *TwoLevel) TableSizes() map[int][2]int {
	out := make(map[int][2]int)
	for _, sw := range tl.t.Switches() {
		out[sw] = [2]int{len(tl.downPort[sw]), len(tl.upLinks[sw])}
	}
	return out
}

func closRealization(t *testing.T) *core.Realization {
	t.Helper()
	nw, err := core.ExampleNetwork()
	if err != nil {
		t.Fatal(err)
	}
	nw.SetMode(core.ModeClos)
	return nw.Realize()
}

func TestTwoLevelDeliversAllPairs(t *testing.T) {
	r := closRealization(t)
	tl, err := BuildTwoLevel(r.Topo)
	if err != nil {
		t.Fatal(err)
	}
	servers := r.Topo.Servers()
	for _, src := range servers {
		for _, dst := range servers {
			if src == dst {
				continue
			}
			path, err := tl.Route(src, dst)
			if err != nil {
				t.Fatalf("%d->%d: %v", src, dst, err)
			}
			if path[len(path)-1] != r.Topo.AttachedSwitch(dst) {
				t.Fatalf("%d->%d ended at %d, want %d", src, dst,
					path[len(path)-1], r.Topo.AttachedSwitch(dst))
			}
			// Clos paths: 1 (intra-rack), 3 (intra-pod), or 5 switches.
			if n := len(path); n != 1 && n != 3 && n != 5 {
				t.Fatalf("%d->%d path %v has %d switches", src, dst, path, n)
			}
		}
	}
}

func TestTwoLevelSpreadsUplinks(t *testing.T) {
	// Different destination suffixes must use different uplinks from the
	// same edge switch (the whole point of the suffix table).
	r := closRealization(t)
	tl, err := BuildTwoLevel(r.Topo)
	if err != nil {
		t.Fatal(err)
	}
	servers := r.Topo.Servers()
	src := servers[0]
	used := map[int]bool{}
	// Destinations in a different pod: the first hop is an uplink.
	for _, dst := range servers {
		if r.Topo.Nodes[r.Topo.AttachedSwitch(dst)].Pod == r.Topo.Nodes[r.Topo.AttachedSwitch(src)].Pod {
			continue
		}
		link, deliver, ok := tl.NextHop(r.Topo.AttachedSwitch(src), dst)
		if !ok || deliver {
			t.Fatalf("unexpected next hop for %d", dst)
		}
		used[link] = true
	}
	if len(used) < 2 {
		t.Fatalf("suffix hashing used %d distinct uplinks, want >= 2", len(used))
	}
}

func TestTwoLevelRejectsFlattenedModes(t *testing.T) {
	nw, err := core.ExampleNetwork()
	if err != nil {
		t.Fatal(err)
	}
	nw.SetMode(core.ModeGlobal)
	r := nw.Realize()
	if _, err := BuildTwoLevel(r.Topo); err == nil {
		t.Fatal("two-level routing accepted a flattened topology")
	}
}

func TestTwoLevelTableSizesConstant(t *testing.T) {
	// Table sizes depend on topology, not on traffic: an edge switch
	// holds one prefix (itself) plus its uplinks; totals stay tiny
	// compared to the per-pair state of k-shortest-path routing.
	r := closRealization(t)
	tl, err := BuildTwoLevel(r.Topo)
	if err != nil {
		t.Fatal(err)
	}
	sizes := tl.TableSizes()
	for _, e := range r.Topo.Edges() {
		if sizes[e][0] != 1 {
			t.Fatalf("edge %d prefix entries = %d, want 1", e, sizes[e][0])
		}
		if sizes[e][1] != 2 {
			t.Fatalf("edge %d uplinks = %d, want 2", e, sizes[e][1])
		}
	}
	for _, c := range r.Topo.Cores() {
		// A core switch must know a route to every edge switch.
		if sizes[c][0] != len(r.Topo.Edges()) {
			t.Fatalf("core %d prefixes = %d, want %d", c, sizes[c][0], len(r.Topo.Edges()))
		}
	}
}

func TestTwoLevelOnLargerClos(t *testing.T) {
	p, err := topo.Table2ByName("topo-2")
	if err != nil {
		t.Fatal(err)
	}
	ct, err := topo.BuildClos(p)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := BuildTwoLevel(ct)
	if err != nil {
		t.Fatal(err)
	}
	servers := ct.Servers()
	// Sample pairs across pods.
	for i := 0; i < len(servers); i += 97 {
		for j := len(servers) - 1; j >= 0; j -= 101 {
			if i == j {
				continue
			}
			if _, err := tl.Route(servers[i], servers[j]); err != nil {
				t.Fatal(err)
			}
		}
	}
}
