package routing

import (
	"reflect"
	"slices"
	"testing"

	"flattree/internal/core"
	"flattree/internal/graph"
	"flattree/internal/telemetry"
	"flattree/internal/topo"
)

func exampleGlobal(t *testing.T) (*core.Network, *core.Realization) {
	t.Helper()
	nw, err := core.ExampleNetwork()
	if err != nil {
		t.Fatal(err)
	}
	nw.SetMode(core.ModeGlobal)
	return nw, nw.Realize()
}

func TestBuildKShortestIngressSet(t *testing.T) {
	_, r := exampleGlobal(t)
	tb := BuildKShortest(r.Topo, 4)
	// Global mode example: every edge, agg, and core switch hosts servers
	// (1/1/2 each) => 20 ingress switches.
	if got := len(tb.Ingress); got != 20 {
		t.Fatalf("ingress switches = %d, want 20", got)
	}
	if got := len(tb.Paths); got != 20*19 {
		t.Fatalf("pairs = %d, want %d", len(tb.Paths), 20*19)
	}
}

func TestSwitchPathsAreValidAndOrdered(t *testing.T) {
	_, r := exampleGlobal(t)
	tb := BuildKShortest(r.Topo, 4)
	for pair, paths := range tb.Paths {
		if len(paths) == 0 || len(paths) > 4 {
			t.Fatalf("pair %v: %d paths", pair, len(paths))
		}
		last := 0
		for _, p := range paths {
			if !p.Valid(r.Topo.G) || !p.Loopless() {
				t.Fatalf("pair %v: invalid path %v", pair, p.Nodes)
			}
			if p.Len() < last {
				t.Fatalf("pair %v: unordered paths", pair)
			}
			last = p.Len()
		}
	}
}

func TestServerPaths(t *testing.T) {
	_, r := exampleGlobal(t)
	tb := BuildKShortest(r.Topo, 4)
	servers := r.Topo.Servers()
	src, dst := servers[0], servers[13]
	paths := tb.ServerPaths(src, dst)
	if len(paths) == 0 {
		t.Fatal("no server paths")
	}
	for _, p := range paths {
		if p.Nodes[0] != src || p.Nodes[len(p.Nodes)-1] != dst {
			t.Fatalf("endpoints wrong: %v", p.Nodes)
		}
		if !p.Valid(r.Topo.G) {
			t.Fatalf("invalid server path %v", p.Nodes)
		}
	}

	// ServerSlots is every server path as directed slots, on a fabric with
	// parallel links.
	tp := parallelLinkTopo()
	ptb := BuildKShortest(tp, 3)
	for _, s := range tp.Servers() {
		for _, d := range tp.Servers() {
			if s == d {
				continue
			}
			want := [][]int{}
			for _, p := range ptb.ServerPaths(s, d) {
				want = append(want, DirectedLinkIDs(tp.G, p))
			}
			if got := ptb.ServerSlots(s, d); !reflect.DeepEqual(got, want) {
				t.Fatalf("ServerSlots(%d, %d) = %v, want %v", s, d, got, want)
			}
		}
	}
}

// TestTablePairNumbering pins the pair numbering Paths is indexed by, on
// mini-1 in global mode (every switch an ingress switch) and in Clos mode
// (edges only): pairs run in strictly increasing (Src, Dst) order, each
// pair's paths join its endpoints, SwitchPaths finds them by number, and a
// node that is not an ingress switch has none.
func TestTablePairNumbering(t *testing.T) {
	for _, tc := range []struct {
		mode       core.Mode
		ingress    int
		notIngress func(tp *topo.Topology) []int
	}{
		{core.ModeGlobal, 48, func(tp *topo.Topology) []int { return tp.Servers()[:1] }},
		{core.ModeClos, 16, func(tp *topo.Topology) []int { return []int{tp.Aggs()[0], tp.Servers()[0]} }},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			tp := mini1Topo(t, tc.mode)
			tb := BuildKShortest(tp, 2)
			if s := len(tb.Ingress); s != tc.ingress || len(tb.Paths) != s*(s-1) {
				t.Fatalf("%d ingress switches, %d pairs; want %d and %d", s, len(tb.Paths), tc.ingress, tc.ingress*(tc.ingress-1))
			}
			var prev graph.PairKey
			for i, paths := range tb.Paths {
				pk := tb.Pair(i)
				if i > 0 && (pk.Src < prev.Src || pk.Src == prev.Src && pk.Dst <= prev.Dst) {
					t.Fatalf("pair %d = %v does not follow pair %d = %v", i, pk, i-1, prev)
				}
				prev = pk
				for _, p := range paths {
					if p.Nodes[0] != pk.Src || p.Nodes[len(p.Nodes)-1] != pk.Dst {
						t.Fatalf("pair %d = %v holds path %v", i, pk, p.Nodes)
					}
				}
				if got := tb.SwitchPaths(pk.Src, pk.Dst); len(got) == 0 || &got[0] != &paths[0] {
					t.Fatalf("SwitchPaths%v is not Paths[%d]", pk, i)
				}
			}
			sw := tb.Ingress[0]
			for _, n := range tc.notIngress(tp) {
				if got := tb.SwitchPaths(n, sw); got != nil {
					t.Fatalf("SwitchPaths(%d, %d) = %v from a non-ingress node", n, sw, got)
				}
				if got := tb.SwitchPaths(sw, n); got != nil {
					t.Fatalf("SwitchPaths(%d, %d) = %v to a non-ingress node", sw, n, got)
				}
			}
			if got := tb.SwitchPaths(sw, sw); len(got) != 1 || got[0].Len() != 0 || !slices.Equal(got[0].Nodes, []int{sw}) {
				t.Fatalf("SwitchPaths(%d, %d) = %v, want one zero-length path", sw, sw, got)
			}
		})
	}
}

func TestServerPathsSameSwitch(t *testing.T) {
	nw, err := core.ExampleNetwork()
	if err != nil {
		t.Fatal(err)
	}
	nw.SetMode(core.ModeClos)
	r := nw.Realize()
	tb := BuildKShortest(r.Topo, 4)
	// Servers 0 and 1 share edge switch (pod 0, edge 0) in Clos mode.
	s0, s1 := r.ServerID[0][0][0], r.ServerID[0][0][1]
	paths := tb.ServerPaths(s0, s1)
	if len(paths) != 1 {
		t.Fatalf("intra-rack paths = %d, want 1", len(paths))
	}
	if paths[0].Len() != 2 {
		t.Fatalf("intra-rack path length = %d, want 2", paths[0].Len())
	}
}

func TestEqualCostPaths(t *testing.T) {
	_, r := exampleGlobal(t)
	tb := BuildKShortest(r.Topo, 4)
	for _, a := range tb.Ingress[:5] {
		for _, b := range tb.Ingress[:5] {
			if a == b {
				continue
			}
			eq := tb.EqualCostPaths(a, b)
			if len(eq) == 0 {
				t.Fatalf("no equal-cost paths %d->%d", a, b)
			}
			for _, p := range eq {
				if p.Len() != eq[0].Len() {
					t.Fatal("unequal lengths in equal-cost set")
				}
			}
		}
	}
}

func TestECMPDeterministicAndSinglePath(t *testing.T) {
	_, r := exampleGlobal(t)
	tb := BuildKShortest(r.Topo, 8)
	servers := r.Topo.Servers()
	src, dst := servers[2], servers[20]
	h := FlowHash(src, dst, 0)
	p1, ok1 := tb.ECMPServerPath(src, dst, h)
	p2, ok2 := tb.ECMPServerPath(src, dst, h)
	if !ok1 || !ok2 {
		t.Fatal("no ECMP path")
	}
	if len(p1.Nodes) != len(p2.Nodes) {
		t.Fatal("nondeterministic ECMP")
	}
	for i := range p1.Nodes {
		if p1.Nodes[i] != p2.Nodes[i] {
			t.Fatal("nondeterministic ECMP path")
		}
	}
	// Different salts should eventually pick different paths when the
	// equal-cost set has more than one member.
	diverse := false
	for salt := 0; salt < 32; salt++ {
		p, _ := tb.ECMPServerPath(src, dst, FlowHash(src, dst, salt))
		if len(p.Nodes) != len(p1.Nodes) {
			diverse = true
			break
		}
		for i := range p.Nodes {
			if p.Nodes[i] != p1.Nodes[i] {
				diverse = true
				break
			}
		}
	}
	eq := tb.EqualCostPaths(r.Topo.AttachedSwitch(src), r.Topo.AttachedSwitch(dst))
	if len(eq) > 1 && !diverse {
		t.Fatal("ECMP never diversified across 32 hashes despite multiple equal-cost paths")
	}
}

func TestAveragePathLengthSmallDiameter(t *testing.T) {
	_, r := exampleGlobal(t)
	tb := BuildKShortest(r.Topo, 4)
	apl := tb.AveragePathLength()
	// §4.2.2: flat-tree is a small-diameter network, paths traverse
	// fewer than 3 switches on average (i.e. < 3 switch-level hops).
	if apl <= 0 || apl >= 3 {
		t.Fatalf("switch-level APL = %v, want (0, 3)", apl)
	}
}

func TestCountStates(t *testing.T) {
	_, r := exampleGlobal(t)
	tb := BuildKShortest(r.Topo, 4)
	sc := tb.CountStates(48)
	if sc.SourceRoutedIngress != len(tb.Ingress)*4 {
		t.Fatalf("SourceRoutedIngress = %d, want %d", sc.SourceRoutedIngress, len(tb.Ingress)*4)
	}
	if sc.SourceRoutedTransit <= 0 || sc.SourceRoutedTransit > 6*48 {
		t.Fatalf("SourceRoutedTransit = %d out of expected range", sc.SourceRoutedTransit)
	}
	if sc.PrefixAvg >= sc.PerFlowAvg {
		t.Fatalf("prefix aggregation (%v) did not reduce states vs per-flow (%v)",
			sc.PrefixAvg, sc.PerFlowAvg)
	}
	if sc.PrefixMaxPerSwitch <= 0 {
		t.Fatal("no prefix rules counted")
	}
	// §4.2.1: aggregation reduces states by (servers per ToR)^2; here
	// servers/switch is ~1.2, so the factor is modest but must match the
	// n^2/S^2 ratio.
	wantFactor := float64(len(r.Topo.Servers())*len(r.Topo.Servers())) /
		float64(len(tb.Ingress)*len(tb.Ingress))
	gotFactor := sc.PerFlowAvg / sc.PrefixAvg
	if diff := gotFactor - wantFactor; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("reduction factor %v, want %v", gotFactor, wantFactor)
	}
}

func TestStateReductionFactorAtScale(t *testing.T) {
	// §4.2.1: 20-40 servers per ToR reduce states by 400-1600x. Verify
	// the formulas reproduce that ratio for a 32-servers-per-edge Clos.
	p, err := topo.Table2ByName("topo-1")
	if err != nil {
		t.Fatal(err)
	}
	n := float64(p.TotalServers())
	S := float64(p.Pods * p.EdgesPerPod) // ingress = edge switches in Clos mode
	factor := (n * n) / (S * S)
	if factor != 1024 {
		t.Fatalf("reduction factor = %v, want 1024 (32^2)", factor)
	}
}

func TestBuildKShortestPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k=0 did not panic")
		}
	}()
	_, r := exampleGlobal(t)
	BuildKShortest(r.Topo, 0)
}

func TestWithKTruncates(t *testing.T) {
	_, r := exampleGlobal(t)
	tb := BuildKShortest(r.Topo, 8)
	view := tb.WithK(2)
	if view.K != 2 {
		t.Fatalf("view K = %d", view.K)
	}
	for pair, paths := range view.Paths {
		if len(paths) > 2 {
			t.Fatalf("pair %v has %d paths in k=2 view", pair, len(paths))
		}
		full := tb.Paths[pair]
		for i := range paths {
			if paths[i].Len() != full[i].Len() {
				t.Fatalf("view path %d differs from full table", i)
			}
		}
	}
	// WithK at or above K returns the same table.
	if tb.WithK(8) != tb || tb.WithK(20) != tb {
		t.Fatal("WithK did not return the original table")
	}
	// Views still expand server paths.
	servers := r.Topo.Servers()
	if got := view.ServerPaths(servers[0], servers[20]); len(got) == 0 || len(got) > 2 {
		t.Fatalf("view server paths = %d", len(got))
	}
}

func TestDirectedLinkIDs(t *testing.T) {
	_, r := exampleGlobal(t)
	tb := BuildKShortest(r.Topo, 2)
	servers := r.Topo.Servers()
	paths := tb.ServerPaths(servers[0], servers[20])
	for _, p := range paths {
		ids := DirectedLinkIDs(r.Topo.G, p)
		if len(ids) != len(p.Links) {
			t.Fatalf("directed ids = %d for %d links", len(ids), len(p.Links))
		}
		for i, id := range ids {
			link := r.Topo.G.Link(id / 2)
			if link.ID != p.Links[i] {
				t.Fatalf("hop %d: directed id %d maps to link %d, want %d", i, id, link.ID, p.Links[i])
			}
			// Direction bit must match traversal order.
			dir := id % 2
			if dir == 0 && link.A != p.Nodes[i] {
				t.Fatalf("hop %d: forward arc but tail is %d not %d", i, link.A, p.Nodes[i])
			}
			if dir == 1 && link.B != p.Nodes[i] {
				t.Fatalf("hop %d: reverse arc but tail is %d not %d", i, link.B, p.Nodes[i])
			}
		}
	}
	caps := DirectedCaps(r.Topo.G)
	if len(caps) != 2*r.Topo.G.NumLinks() {
		t.Fatalf("caps = %d slots", len(caps))
	}
	for _, c := range caps {
		if c != 10 {
			t.Fatalf("cap = %v, want 10", c)
		}
	}
}

func TestFlowHashStable(t *testing.T) {
	if FlowHash(1, 2, 3) != FlowHash(1, 2, 3) {
		t.Fatal("hash not deterministic")
	}
	if FlowHash(1, 2, 3) == FlowHash(1, 2, 4) {
		t.Fatal("salt ignored")
	}
	if FlowHash(1, 2, 3) == FlowHash(2, 1, 3) {
		t.Fatal("direction ignored")
	}
}

// TestEqualCostPathsTruncationSurfaced pins the ECMP truncation fix: on a
// fabric with more equal-cost shortest paths than the table's k, the full
// stored prefix is minimum length, and the truncation is surfaced via the
// routing_ecmp_truncated_total counter instead of passing silently.
func TestEqualCostPathsTruncationSurfaced(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	// Two edge switches joined through three aggs: three two-hop
	// equal-cost paths between the edges.
	tp := topo.NewTopology("ecmp-fan")
	e0 := tp.AddNode(topo.Edge, 0)
	e1 := tp.AddNode(topo.Edge, 1)
	for i := 0; i < 3; i++ {
		a := tp.AddNode(topo.Agg, i%2)
		tp.AddLink(e0, a)
		tp.AddLink(e1, a)
	}
	for _, sw := range []int{e0, e1} {
		s := tp.AddNode(topo.Server, tp.Nodes[sw].Pod)
		tp.AttachServer(s, sw)
	}

	// k=2 holds only two of the three equal-cost paths: the whole stored
	// set is minimum length, so the truncation must be surfaced.
	small := BuildKShortest(tp, 2)
	ctr := telemetry.C("routing_ecmp_truncated_total")
	before := ctr.Value()
	eq := small.EqualCostPaths(e0, e1)
	if len(eq) != 2 {
		t.Fatalf("k=2 equal-cost set has %d paths, want 2", len(eq))
	}
	if ctr.Value() != before+1 {
		t.Fatal("truncated equal-cost set did not increment routing_ecmp_truncated_total")
	}
	// k=4 exceeds the three available paths, so the set is provably
	// complete and the counter stays put.
	big := BuildKShortest(tp, 4)
	before = ctr.Value()
	eq = big.EqualCostPaths(e0, e1)
	if len(eq) != 3 {
		t.Fatalf("k=4 equal-cost set has %d paths, want 3", len(eq))
	}
	if ctr.Value() != before {
		t.Fatal("complete equal-cost set incremented routing_ecmp_truncated_total")
	}
}
