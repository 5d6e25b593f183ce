package topo

import (
	"testing"
	"testing/quick"
)

func TestFatTreeK4(t *testing.T) {
	ft, err := BuildClos(FatTree(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := ft.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(ft.Servers()); got != 16 {
		t.Fatalf("servers = %d, want 16", got)
	}
	if got := len(ft.Edges()); got != 8 {
		t.Fatalf("edges = %d, want 8", got)
	}
	if got := len(ft.Aggs()); got != 8 {
		t.Fatalf("aggs = %d, want 8", got)
	}
	if got := len(ft.Cores()); got != 4 {
		t.Fatalf("cores = %d, want 4", got)
	}
	// Every switch in a k=4 fat-tree has degree 4.
	for sw, d := range ft.SwitchDegrees() {
		if d != 4 {
			t.Fatalf("switch %d degree %d, want 4", sw, d)
		}
	}
}

func TestFatTreeK16MatchesPaper(t *testing.T) {
	// §2.1: k=16 fat-tree, each edge switch connected to 8 servers,
	// 64 servers per pod.
	p := FatTree(16)
	ft, err := BuildClos(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ft.Servers()); got != 1024 {
		t.Fatalf("servers = %d, want 1024", got)
	}
	if p.ServersPerEdge != 8 {
		t.Fatalf("servers per edge = %d, want 8", p.ServersPerEdge)
	}
	if got := p.EdgesPerPod * p.ServersPerEdge; got != 64 {
		t.Fatalf("servers per pod = %d, want 64", got)
	}
}

func TestTable2Shapes(t *testing.T) {
	// Expected totals straight from Table 2 of the paper.
	want := map[string]struct {
		es, as, cs, servers  int
		esUp, esDown         int
		asUp, asDown, csDown int
	}{
		"topo-1": {128, 128, 64, 4096, 8, 32, 8, 8, 16},
		"topo-2": {72, 72, 36, 1728, 6, 24, 6, 6, 12},
		"topo-3": {128, 128, 64, 8192, 8, 64, 8, 8, 16},
		"topo-4": {128, 64, 32, 4096, 8, 32, 16, 16, 32},
		"topo-5": {128, 128, 64, 4096, 16, 32, 8, 16, 16},
		"topo-6": {128, 64, 32, 4096, 16, 32, 16, 32, 32},
	}
	for _, p := range Table2() {
		w, ok := want[p.Name]
		if !ok {
			t.Fatalf("unexpected topology %s", p.Name)
		}
		if got := p.Pods * p.EdgesPerPod; got != w.es {
			t.Errorf("%s: edge switches = %d, want %d", p.Name, got, w.es)
		}
		if got := p.Pods * p.AggsPerPod; got != w.as {
			t.Errorf("%s: agg switches = %d, want %d", p.Name, got, w.as)
		}
		if p.Cores != w.cs {
			t.Errorf("%s: cores = %d, want %d", p.Name, p.Cores, w.cs)
		}
		if got := p.TotalServers(); got != w.servers {
			t.Errorf("%s: servers = %d, want %d", p.Name, got, w.servers)
		}
		if p.EdgeUplinks != w.esUp || p.ServersPerEdge != w.esDown {
			t.Errorf("%s: ES ports (%d,%d), want (%d,%d)", p.Name, p.EdgeUplinks, p.ServersPerEdge, w.esUp, w.esDown)
		}
		if p.AggUplinks != w.asUp || p.aggDownlinks() != w.asDown {
			t.Errorf("%s: AS ports (%d,%d), want (%d,%d)", p.Name, p.AggUplinks, p.aggDownlinks(), w.asUp, w.asDown)
		}
		if got := p.CoreDownlinks(); got != w.csDown {
			t.Errorf("%s: CS downlinks = %d, want %d", p.Name, got, w.csDown)
		}
	}
}

func TestTable2BuildsAndValidates(t *testing.T) {
	for _, p := range Table2() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			tp, err := BuildClos(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := tp.Validate(); err != nil {
				t.Fatal(err)
			}
			// Port budget: each switch's degree must equal its port count.
			for _, e := range tp.Edges() {
				if d := tp.G.Degree(e); d != p.ServersPerEdge+p.EdgeUplinks {
					t.Fatalf("edge %d degree %d, want %d", e, d, p.ServersPerEdge+p.EdgeUplinks)
				}
			}
			for _, a := range tp.Aggs() {
				if d := tp.G.Degree(a); d != p.aggDownlinks()+p.AggUplinks {
					t.Fatalf("agg %d degree %d, want %d", a, d, p.aggDownlinks()+p.AggUplinks)
				}
			}
			for _, c := range tp.Cores() {
				if d := tp.G.Degree(c); d != p.CoreDownlinks() {
					t.Fatalf("core %d degree %d, want %d", c, d, p.CoreDownlinks())
				}
			}
		})
	}
}

func TestTable2ByName(t *testing.T) {
	p, err := Table2ByName("topo-3")
	if err != nil || p.Name != "topo-3" {
		t.Fatalf("Table2ByName(topo-3) = %v, %v", p, err)
	}
	if _, err := Table2ByName("topo-9"); err == nil {
		t.Fatal("unknown name did not error")
	}
}

func TestClosValidation(t *testing.T) {
	bad := ClosParams{Name: "bad", Pods: 2, EdgesPerPod: 3, AggsPerPod: 2,
		ServersPerEdge: 2, EdgeUplinks: 2, AggUplinks: 2, Cores: 4}
	if _, err := BuildClos(bad); err == nil {
		t.Fatal("inconsistent Clos accepted")
	}
}

func TestServerAttachment(t *testing.T) {
	ft, _ := BuildClos(FatTree(4))
	for _, s := range ft.Servers() {
		sw := ft.AttachedSwitch(s)
		if ft.Nodes[sw].Kind != Edge {
			t.Fatalf("server %d attached to %v", s, ft.Nodes[sw].Kind)
		}
		if ft.Nodes[s].Pod != ft.Nodes[sw].Pod {
			t.Fatalf("pod mismatch for server %d", s)
		}
	}
	// Each edge switch hosts exactly k/2 = 2 servers.
	for _, e := range ft.Edges() {
		if got := len(ft.ServersOn(e)); got != 2 {
			t.Fatalf("edge %d hosts %d servers, want 2", e, got)
		}
	}
}

func TestRandomGraphFromFatTree(t *testing.T) {
	p := FromClosEquipment(FatTree(8))
	p.Seed = 42
	rg, err := BuildRandomGraph(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := rg.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(rg.Servers()); got != 128 {
		t.Fatalf("servers = %d, want 128", got)
	}
	// 64 pod switches with 8 ports + 16 cores with 8 ports = 80 switches.
	if got := len(rg.Edges()); got != 80 {
		t.Fatalf("switches = %d, want 80", got)
	}
	// Port budgets must never be exceeded.
	for i, e := range rg.Edges() {
		if d := rg.G.Degree(e); d > p.Switches[i] {
			t.Fatalf("switch %d degree %d exceeds %d ports", e, d, p.Switches[i])
		}
	}
	// Servers uniform: 128/96 => each switch has 1 or 2 servers.
	for _, e := range rg.Edges() {
		n := len(rg.ServersOn(e))
		if n < 1 || n > 2 {
			t.Fatalf("switch %d has %d servers, want 1..2", e, n)
		}
	}
}

func TestRandomGraphDeterministic(t *testing.T) {
	p := FromClosEquipment(FatTree(4))
	p.Seed = 7
	a, err := BuildRandomGraph(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildRandomGraph(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.G.NumLinks() != b.G.NumLinks() {
		t.Fatal("seeded builds differ in link count")
	}
	for i := 0; i < a.G.NumLinks(); i++ {
		la, lb := a.G.Link(i), b.G.Link(i)
		if la.A != lb.A || la.B != lb.B {
			t.Fatalf("link %d differs: %v vs %v", i, la, lb)
		}
	}
}

func TestRandomGraphRejectsOverfull(t *testing.T) {
	_, err := BuildRandomGraph(RandomGraphParams{Name: "x", Switches: []int{2, 2}, Servers: 10})
	if err == nil {
		t.Fatal("overfull random graph accepted")
	}
}

func TestTwoStageRandomGraph(t *testing.T) {
	p := TwoStageParams{Name: "ts", Clos: FatTree(8), Seed: 3}
	ts, err := BuildTwoStageRandomGraph(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(ts.Servers()); got != 128 {
		t.Fatalf("servers = %d, want 128", got)
	}
	// Core switches take no servers (§2.1).
	for _, c := range ts.Cores() {
		if n := len(ts.ServersOn(c)); n != 0 {
			t.Fatalf("core %d hosts %d servers, want 0", c, n)
		}
	}
	// Servers uniform within each pod: 16 servers over 8 switches = 2 each.
	for pod := 0; pod < 8; pod++ {
		for _, n := range ts.Nodes {
			if n.Pod == pod && (n.Kind == Edge || n.Kind == Agg) {
				if got := len(ts.ServersOn(n.ID)); got != 2 {
					t.Fatalf("pod %d switch %d hosts %d servers, want 2", pod, n.ID, got)
				}
			}
		}
	}
}

func TestTwoStageNoIntraPodGlobalLinks(t *testing.T) {
	// The global pairing must never join two switches of the same pod:
	// such a link would be an intra-pod link smuggled into the core layer.
	// We detect violations indirectly: every inter-switch link must be
	// either intra-pod (both endpoints same pod, placed by the pod stage
	// plus its port budget) or have endpoints in different pods / core.
	p := TwoStageParams{Name: "ts", Clos: FatTree(4), Seed: 11}
	ts, err := BuildTwoStageRandomGraph(p)
	if err != nil {
		t.Fatal(err)
	}
	// Count pod-internal links per pod; each pod's internal ports after
	// servers and uplinks are (ports-servers-uplinks) summed / 2.
	cp := p.Clos
	perPod := cp.EdgesPerPod*(cp.ServersPerEdge+cp.EdgeUplinks) +
		cp.AggsPerPod*(cp.EdgesPerPod*cp.EdgeAggMultiplicity()+cp.AggUplinks)
	serversPerPod := cp.EdgesPerPod * cp.ServersPerEdge
	uplinks := cp.AggsPerPod * cp.AggUplinks
	maxIntra := (perPod - serversPerPod - uplinks) / 2
	intra := make(map[int]int)
	for _, l := range ts.G.Links() {
		na, nb := ts.Nodes[l.A], ts.Nodes[l.B]
		if na.Kind == Server || nb.Kind == Server {
			continue
		}
		if na.Pod >= 0 && na.Pod == nb.Pod {
			intra[na.Pod]++
		}
	}
	for pod, n := range intra {
		if n > maxIntra {
			t.Fatalf("pod %d has %d intra-pod links, max %d: global stage leaked same-pod links",
				pod, n, maxIntra)
		}
	}
}

func TestKindString(t *testing.T) {
	if Server.String() != "server" || Core.String() != "core" {
		t.Fatal("Kind.String wrong")
	}
	if Kind(99).String() == "" {
		t.Fatal("out-of-range Kind.String empty")
	}
}

// Property: every fat-tree has uniform switch degree k and its server count
// is k^3/4.
func TestFatTreeProperty(t *testing.T) {
	f := func(raw uint8) bool {
		k := 4 + int(raw%5)*2 // 4, 6, 8, 10, 12
		ft, err := BuildClos(FatTree(k))
		if err != nil {
			return false
		}
		if len(ft.Servers()) != k*k*k/4 {
			return false
		}
		for _, d := range ft.SwitchDegrees() {
			if d != k {
				return false
			}
		}
		return ft.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// ServersOn returns the servers attached to switch sw, in server-index order.
func (t *Topology) ServersOn(sw int) []int {
	var out []int
	for _, s := range t.servers {
		if t.attach[s] == sw {
			out = append(out, s)
		}
	}
	return out
}

// SwitchDegrees returns, for each switch ID, its total link degree
// (including server links). Useful for port-budget assertions.
func (t *Topology) SwitchDegrees() map[int]int {
	out := make(map[int]int)
	for _, sw := range t.Switches() {
		out[sw] = t.G.Degree(sw)
	}
	return out
}
