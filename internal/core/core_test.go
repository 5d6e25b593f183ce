package core

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"flattree/internal/topo"
)

func topo1Network(t *testing.T, pattern Pattern) *Network {
	t.Helper()
	p, err := topo.Table2ByName("topo-1")
	if err != nil {
		t.Fatal(err)
	}
	nw, err := New(p, Options{N: 2, M: 2, Pattern: pattern})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// checkPortBudgets asserts that every switch keeps exactly its Clos port
// count in the realized topology: conversion rewires ports, never adds or
// removes them.
func checkPortBudgets(t *testing.T, nw *Network, r *Realization) {
	t.Helper()
	cp := nw.Clos()
	tp := r.Topo
	wantEdge := cp.ServersPerEdge + cp.EdgeUplinks
	wantAgg := cp.EdgesPerPod*cp.EdgeAggMultiplicity() + cp.AggUplinks
	wantCore := cp.CoreDownlinks()
	for _, e := range tp.Edges() {
		if d := tp.G.Degree(e); d != wantEdge {
			t.Fatalf("edge %d degree %d, want %d", e, d, wantEdge)
		}
	}
	for _, a := range tp.Aggs() {
		if d := tp.G.Degree(a); d != wantAgg {
			t.Fatalf("agg %d degree %d, want %d", a, d, wantAgg)
		}
	}
	for _, c := range tp.Cores() {
		if d := tp.G.Degree(c); d != wantCore {
			t.Fatalf("core %d degree %d, want %d", c, d, wantCore)
		}
	}
	for _, s := range tp.Servers() {
		if d := tp.G.Degree(s); d != 1 {
			t.Fatalf("server %d degree %d, want 1", s, d)
		}
	}
}

func TestNewValidation(t *testing.T) {
	p := ExampleClos()
	cases := []Options{
		{N: 0, M: 0},  // no converters
		{N: -1, M: 2}, // negative
		{N: 2, M: 1},  // n+m > g=2
		{N: 1, M: 3},  // n+m > servers per edge and > g
	}
	for _, opt := range cases {
		if _, err := New(p, opt); err == nil {
			t.Errorf("Options %+v accepted, want error", opt)
		}
	}
	if _, err := New(p, Options{N: 1, M: 1, Pattern: Pattern(9)}); err == nil {
		t.Error("invalid pattern accepted")
	}
	odd := p
	odd.EdgesPerPod = 3
	odd.AggsPerPod = 3
	odd.EdgeUplinks = 3
	if _, err := New(odd, Options{N: 1, M: 1}); err == nil {
		t.Error("odd edge count accepted")
	}
}

func TestClosModeMatchesClosStructure(t *testing.T) {
	nw, err := ExampleNetwork()
	if err != nil {
		t.Fatal(err)
	}
	nw.SetMode(ModeClos)
	r := nw.Realize()
	if err := r.Topo.Validate(); err != nil {
		t.Fatal(err)
	}
	checkPortBudgets(t, nw, r)
	// In Clos mode every server attaches to an edge switch.
	for _, s := range r.Topo.Servers() {
		sw := r.Topo.AttachedSwitch(s)
		if k := r.Topo.Nodes[sw].Kind; k != topo.Edge {
			t.Fatalf("Clos mode: server %d on %v", s, k)
		}
	}
	// No inter-pod switch links except via core.
	for _, l := range r.Topo.G.Links() {
		na, nb := r.Topo.Nodes[l.A], r.Topo.Nodes[l.B]
		if na.Kind == topo.Server || nb.Kind == topo.Server {
			continue
		}
		if na.Pod >= 0 && nb.Pod >= 0 && na.Pod != nb.Pod {
			t.Fatalf("Clos mode has direct inter-pod link %d-%d", l.A, l.B)
		}
	}
}

func TestGlobalModeExample(t *testing.T) {
	nw, err := ExampleNetwork()
	if err != nil {
		t.Fatal(err)
	}
	nw.SetMode(ModeGlobal)
	r := nw.Realize()
	if err := r.Topo.Validate(); err != nil {
		t.Fatal(err)
	}
	checkPortBudgets(t, nw, r)
	// Figure 2c: each edge keeps 1 server, each agg gains 1, each core 2.
	counts := map[topo.Kind]map[int]int{topo.Edge: {}, topo.Agg: {}, topo.Core: {}}
	for _, s := range r.Topo.Servers() {
		sw := r.Topo.AttachedSwitch(s)
		counts[r.Topo.Nodes[sw].Kind][sw]++
	}
	for _, e := range r.Topo.Edges() {
		if counts[topo.Edge][e] != 1 {
			t.Fatalf("edge %d hosts %d servers, want 1", e, counts[topo.Edge][e])
		}
	}
	for _, a := range r.Topo.Aggs() {
		if counts[topo.Agg][a] != 1 {
			t.Fatalf("agg %d hosts %d servers, want 1", a, counts[topo.Agg][a])
		}
	}
	for _, c := range r.Topo.Cores() {
		if counts[topo.Core][c] != 2 {
			t.Fatalf("core %d hosts %d servers, want 2", c, counts[topo.Core][c])
		}
	}
	// Inter-pod side links exist: ring of 4 pods, m=1 row, d/2=1 column
	// per pair, 2 links per pair => 8 side links.
	side := 0
	for _, l := range r.Topo.G.Links() {
		na, nb := r.Topo.Nodes[l.A], r.Topo.Nodes[l.B]
		if na.Kind == topo.Server || nb.Kind == topo.Server {
			continue
		}
		if na.Pod >= 0 && nb.Pod >= 0 && na.Pod != nb.Pod {
			side++
		}
	}
	if side != 8 {
		t.Fatalf("side links = %d, want 8", side)
	}
}

func TestLocalModeExample(t *testing.T) {
	nw, err := ExampleNetwork()
	if err != nil {
		t.Fatal(err)
	}
	nw.SetMode(ModeLocal)
	r := nw.Realize()
	if err := r.Topo.Validate(); err != nil {
		t.Fatal(err)
	}
	checkPortBudgets(t, nw, r)
	// sd=3 => target = 1 relocation per pair, via the 4-port converter.
	for _, s := range r.Topo.Servers() {
		k := r.Topo.Nodes[r.Topo.AttachedSwitch(s)].Kind
		if k == topo.Core {
			t.Fatalf("local mode relocated server %d to core", s)
		}
	}
	agg, edge := 0, 0
	for _, s := range r.Topo.Servers() {
		switch r.Topo.Nodes[r.Topo.AttachedSwitch(s)].Kind {
		case topo.Agg:
			agg++
		case topo.Edge:
			edge++
		}
	}
	if agg != 8 || edge != 16 {
		t.Fatalf("local mode: %d on agg, %d on edge; want 8, 16", agg, edge)
	}
	// No inter-pod side links in local mode.
	for _, l := range r.Topo.G.Links() {
		na, nb := r.Topo.Nodes[l.A], r.Topo.Nodes[l.B]
		if na.Kind != topo.Server && nb.Kind != topo.Server &&
			na.Pod >= 0 && nb.Pod >= 0 && na.Pod != nb.Pod {
			t.Fatalf("local mode has side link %d-%d", l.A, l.B)
		}
	}
}

func TestServerOrderStableAcrossModes(t *testing.T) {
	nw, _ := ExampleNetwork()
	nw.SetMode(ModeClos)
	a := nw.Realize()
	nw.SetMode(ModeGlobal)
	b := nw.Realize()
	sa, sb := a.Topo.Servers(), b.Topo.Servers()
	if len(sa) != len(sb) {
		t.Fatal("server count changed across modes")
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("server %d node ID changed: %d vs %d", i, sa[i], sb[i])
		}
	}
}

func TestTopo1AllModes(t *testing.T) {
	for _, pattern := range []Pattern{Pattern1, Pattern2} {
		nw := topo1Network(t, pattern)
		for _, mode := range []Mode{ModeClos, ModeLocal, ModeGlobal} {
			nw.SetMode(mode)
			r := nw.Realize()
			if err := r.Topo.Validate(); err != nil {
				t.Fatalf("pattern %d mode %v: %v", pattern, mode, err)
			}
			checkPortBudgets(t, nw, r)
		}
	}
}

func TestWiringProperty1(t *testing.T) {
	// Property 1 (§3.2): servers uniform across core switches in global
	// mode, for both wiring patterns. topo-1 with m=2, n=2 satisfies the
	// divisibility conditions exactly.
	for _, pattern := range []Pattern{Pattern1, Pattern2} {
		nw := topo1Network(t, pattern)
		nw.SetMode(ModeGlobal)
		r := nw.Realize()
		if err := CheckProperty1(r, 0); err != nil {
			t.Errorf("pattern %d: %v", pattern, err)
		}
	}
}

func TestWiringProperty2(t *testing.T) {
	// Property 2 (§3.2): equal per-core link counts of each type.
	for _, pattern := range []Pattern{Pattern1, Pattern2} {
		nw := topo1Network(t, pattern)
		nw.SetMode(ModeGlobal)
		r := nw.Realize()
		if err := CheckProperty2(r, 0); err != nil {
			t.Errorf("pattern %d: %v", pattern, err)
		}
	}
}

func TestCoreForPatterns(t *testing.T) {
	nw := topo1Network(t, Pattern1)
	g := nw.CoreGroupSize()
	if g != 8 {
		t.Fatalf("group size = %d, want 8", g)
	}
	// Pod 0: connector idx maps straight into the group.
	for idx := 0; idx < g; idx++ {
		if got := nw.CoreFor(0, 3, idx); got != 3*g+idx {
			t.Fatalf("CoreFor(0,3,%d) = %d, want %d", idx, got, 3*g+idx)
		}
	}
	// Pattern 1: pod p shifts by p*m within the group.
	if got, want := nw.CoreFor(1, 0, 0), (0*g + (1*2+0)%g); got != want {
		t.Fatalf("pattern1 pod1 = %d, want %d", got, want)
	}
	nw2 := topo1Network(t, Pattern2)
	// Pattern 2: pod p shifts by p*(m+1).
	if got, want := nw2.CoreFor(1, 0, 0), (0*g + (1*3+0)%g); got != want {
		t.Fatalf("pattern2 pod1 = %d, want %d", got, want)
	}
}

func TestSidePartnerInvolution(t *testing.T) {
	nw := topo1Network(t, Pattern1)
	cp := nw.Clos()
	for pod := 0; pod < cp.Pods; pod++ {
		for j := 0; j < cp.EdgesPerPod; j++ {
			for row := 0; row < nw.Options().M; row++ {
				ppod, pj, prow, ok := nw.SidePartner(pod, j, row)
				if !ok {
					t.Fatalf("ring network: no partner for (%d,%d,%d)", pod, j, row)
				}
				qpod, qj, qrow, ok := nw.SidePartner(ppod, pj, prow)
				if !ok || qpod != pod || qj != j || qrow != row {
					t.Fatalf("partner not involutive: (%d,%d,%d) -> (%d,%d,%d) -> (%d,%d,%d)",
						pod, j, row, ppod, pj, prow, qpod, qj, qrow)
				}
			}
		}
	}
}

func TestSidePartnerShiftPattern(t *testing.T) {
	// §3.3: left (i, j) of pod p+1 pairs with right (i, (d/2-1-j+i) mod
	// (d/2)) of pod p.
	nw := topo1Network(t, Pattern1) // d=8, half=4
	for _, tc := range []struct{ j, i, wantCol int }{
		{0, 0, 3}, // mirrored column 3, shift 0
		{1, 0, 2},
		{0, 1, 0}, // (4-1-0+1)%4 = 0
		{3, 1, 1}, // (4-1-3+1)%4 = 1
	} {
		ppod, pj, _, ok := nw.SidePartner(1, tc.j, tc.i)
		if !ok || ppod != 0 {
			t.Fatalf("partner pod = %d, want 0", ppod)
		}
		if got := pj - 4; got != tc.wantCol {
			t.Errorf("left (%d,%d): partner right col %d, want %d", tc.i, tc.j, got, tc.wantCol)
		}
	}
}

func TestLinearPodsBoundary(t *testing.T) {
	p := ExampleClos()
	nw, err := New(p, Options{N: 1, M: 1, LinearPods: true})
	if err != nil {
		t.Fatal(err)
	}
	nw.SetMode(ModeGlobal)
	// Pod 0's left blade has no partner.
	if _, _, _, ok := nw.SidePartner(0, 0, 0); ok {
		t.Fatal("pod 0 left blade found a partner in linear wiring")
	}
	// Its 6-port converters must degrade to local, keeping budgets.
	for _, c := range nw.Converters() {
		if c.Kind == SixPort && c.Pod == 0 && c.EdgeCol == 0 {
			if c.Config != ConfigLocal {
				t.Fatalf("boundary converter config = %v, want local", c.Config)
			}
		}
	}
	r := nw.Realize()
	if err := r.Topo.Validate(); err != nil {
		t.Fatal(err)
	}
	checkPortBudgets(t, nw, r)
}

func TestHybridMode(t *testing.T) {
	nw := topo1Network(t, Pattern1)
	// Zones: pods 0-5 global, 6-10 local, 11-15 Clos.
	for pod := 0; pod < 16; pod++ {
		var m Mode
		switch {
		case pod < 6:
			m = ModeGlobal
		case pod < 11:
			m = ModeLocal
		default:
			m = ModeClos
		}
		if err := nw.SetPodMode(pod, m); err != nil {
			t.Fatal(err)
		}
	}
	if _, uniform := nw.Mode(); uniform {
		t.Fatal("hybrid network reported uniform mode")
	}
	r := nw.Realize()
	if err := r.Topo.Validate(); err != nil {
		t.Fatal(err)
	}
	checkPortBudgets(t, nw, r)
	// Pod 5 (global) borders pod 6 (local): its right-facing 6-port
	// converters must degrade to local; pod 4/5 boundary stays side/cross.
	for _, c := range nw.Converters() {
		if c.Kind != SixPort || c.Pod != 5 {
			continue
		}
		if c.EdgeCol >= 4 { // right blade faces pod 6
			if c.Config != ConfigLocal {
				t.Fatalf("pod 5 right blade col %d config %v, want local", c.EdgeCol, c.Config)
			}
		} else { // left blade faces pod 4 (global)
			want := ConfigSide
			if c.Row%2 == 1 {
				want = ConfigCross
			}
			if c.Config != want {
				t.Fatalf("pod 5 left blade row %d config %v, want %v", c.Row, c.Config, want)
			}
		}
	}
	// Clos pods keep all servers on edges.
	for _, s := range r.Topo.Servers() {
		if r.Topo.Nodes[s].Pod >= 11 {
			sw := r.Topo.AttachedSwitch(s)
			if k := r.Topo.Nodes[sw].Kind; k != topo.Edge {
				t.Fatalf("Clos-zone server %d on %v", s, k)
			}
		}
	}
	if err := nw.SetPodMode(99, ModeClos); err == nil {
		t.Fatal("out-of-range pod accepted")
	}
}

func TestConvertersEnumeration(t *testing.T) {
	nw, _ := ExampleNetwork()
	nw.SetMode(ModeGlobal)
	convs := nw.Converters()
	if len(convs) != nw.NumConverters() {
		t.Fatalf("Converters() = %d entries, want %d", len(convs), nw.NumConverters())
	}
	// Example: 4 pods x 2 edges x (1+1) = 16 converters.
	if nw.NumConverters() != 16 {
		t.Fatalf("NumConverters = %d, want 16", nw.NumConverters())
	}
	for _, c := range convs {
		if c.Kind == FourPort && (c.Config == ConfigSide || c.Config == ConfigCross) {
			t.Fatalf("4-port converter in %v config", c.Config)
		}
	}
}

func TestModeAndConfigStrings(t *testing.T) {
	if ModeGlobal.String() != "global" || ConfigCross.String() != "cross" {
		t.Fatal("string names wrong")
	}
	if FourPort.String() != "4-port" || SixPort.String() != "6-port" {
		t.Fatal("kind names wrong")
	}
	m, err := ParseMode("local")
	if err != nil || m != ModeLocal {
		t.Fatalf("ParseMode(local) = %v, %v", m, err)
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Fatal("ParseMode accepted bogus")
	}
}

func TestProfileMNExample(t *testing.T) {
	best, all, err := ProfileMN(ExampleClos(), Pattern1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 {
		t.Fatal("no candidates profiled")
	}
	if best.N+best.M < 1 || best.N+best.M > 2 {
		t.Fatalf("best (n,m) = (%d,%d) infeasible", best.N, best.M)
	}
	if best.AvgPathLength <= 0 {
		t.Fatalf("best APL = %v", best.AvgPathLength)
	}
	// More relocation capacity should never make APL worse among the
	// profiled candidates' minimum.
	for _, c := range all {
		if c.AvgPathLength < best.AvgPathLength-1e-12 {
			t.Fatalf("candidate %+v beats reported best %+v", c, best)
		}
	}
}

func TestServerIndexStable(t *testing.T) {
	nw, _ := ExampleNetwork()
	r := nw.Realize()
	cp := nw.Clos()
	for pod := 0; pod < cp.Pods; pod++ {
		for j := 0; j < cp.EdgesPerPod; j++ {
			for s := 0; s < cp.ServersPerEdge; s++ {
				// Servers are numbered pod-major: pod, edge column, slot.
				idx := (pod*cp.EdgesPerPod+j)*cp.ServersPerEdge + s
				if got := r.Topo.Servers()[idx]; got != r.ServerID[pod][j][s] {
					t.Fatalf("server (%d,%d,%d) at index %d is node %d, want %d",
						pod, j, s, idx, got, r.ServerID[pod][j][s])
				}
			}
		}
	}
}

// Property: for random feasible layouts and any mode assignment, the
// realization is connected and port budgets hold.
func TestRealizationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := seed
		next := func(n int) int {
			rng = rng*6364136223846793005 + 1442695040888963407
			v := int((rng >> 33) % int64(n))
			if v < 0 {
				v += n
			}
			return v
		}
		pods := 2 + next(4)             // 2..5
		edges := 2 * (1 + next(3))      // 2, 4, 6
		aggs := edges / (1 + next(2)*0) // keep r=1 for simplicity of valid layouts
		sd := 2 + next(4)
		h := 2 + next(3)
		cores := edges * h // group size g=h, d groups
		p := topo.ClosParams{Name: "prop", Pods: pods, EdgesPerPod: edges,
			AggsPerPod: aggs, ServersPerEdge: sd, EdgeUplinks: aggs,
			AggUplinks: h, Cores: cores}
		if p.Validate() != nil {
			return true // skip invalid draws
		}
		maxNM := h
		if sd < maxNM {
			maxNM = sd
		}
		m := 1 + next(maxNM)
		n := maxNM - m
		nw, err := New(p, Options{N: n, M: m})
		if err != nil {
			return true
		}
		for pod := 0; pod < pods; pod++ {
			nw.SetPodMode(pod, Mode(next(3)))
		}
		r := nw.Realize()
		if err := r.Topo.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		cp := nw.Clos()
		wantEdge := cp.ServersPerEdge + cp.EdgeUplinks
		for _, e := range r.Topo.Edges() {
			if r.Topo.G.Degree(e) != wantEdge {
				t.Logf("seed %d: edge degree %d != %d", seed, r.Topo.G.Degree(e), wantEdge)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// CheckProperty1 verifies that servers are distributed uniformly across
// core switches (Property 1, §3.2): the per-core server count varies by at
// most tolerance.
func CheckProperty1(r *Realization, tolerance int) error {
	if s := CensusSpread(CensusCores(r)).Servers; s > tolerance {
		return fmt.Errorf("core: Property 1 violated: per-core server spread %d > %d", s, tolerance)
	}
	return nil
}

// CheckProperty2 verifies that core switches carry an equal number of links
// of each type (Property 2, §3.2), within the given tolerance.
func CheckProperty2(r *Realization, tolerance int) error {
	s := CensusSpread(CensusCores(r))
	if s.ToEdge > tolerance {
		return fmt.Errorf("core: Property 2 violated: per-core edge-link spread %d > %d", s.ToEdge, tolerance)
	}
	if s.ToAgg > tolerance {
		return fmt.Errorf("core: Property 2 violated: per-core agg-link spread %d > %d", s.ToAgg, tolerance)
	}
	return nil
}

// TestSetModeRejectsInvalidMode pins SetMode's documented panic: CheckMode's
// error, raised before any pod changes, so PodModes reads as before. It
// used to store the mode, and Realize later panicked with another text.
func TestSetModeRejectsInvalidMode(t *testing.T) {
	nw, err := ExampleNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.SetPodMode(1, ModeGlobal); err != nil {
		t.Fatal(err)
	}
	before := nw.PodModes()
	func() {
		defer func() {
			err, ok := recover().(error)
			if want := "core: invalid mode Mode(7) (want clos, local or global)"; !ok || err.Error() != want {
				t.Fatalf("SetMode(Mode(7)) panicked with %v, want error %q", err, want)
			}
		}()
		nw.SetMode(Mode(7))
	}()
	if got := nw.PodModes(); !slices.Equal(got, before) {
		t.Fatalf("SetMode(Mode(7)) left pod modes %v, want %v", got, before)
	}
}
