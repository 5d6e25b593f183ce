package experiments

import (
	"os"
	"strings"
	"testing"

	"flattree/internal/core"
	"flattree/internal/metrics"
	"flattree/internal/topo"
	"flattree/internal/traffic"
)

// testConfig keeps experiment tests fast: coarse LP accuracy.
func testConfig() Config { return Config{Seed: 7, Epsilon: 0.35} }

func TestMiniTable2Valid(t *testing.T) {
	for _, p := range MiniTable2() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if _, err := core.New(p, flatTreeOptions(p)); err != nil {
			t.Errorf("%s: flat-tree options infeasible: %v", p.Name, err)
		}
	}
}

func TestTable1SmallShape(t *testing.T) {
	// The default reduced instance: mini-1 (128 servers, 8 per rack,
	// 2:1 oversubscribed at the edge) with rack-fit / pod-span /
	// network-wide clusters. Oversubscription matters: with a
	// non-blocking fabric every architecture ties at the NIC bound and
	// the regimes cannot separate (see Table1Params).
	c := testConfig()
	res, err := c.Table1With(c.DefaultTable1Params())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.RawClos <= 0 || row.RawRandomGraph <= 0 || row.RawTwoStage <= 0 {
			t.Fatalf("nonpositive throughput in %+v", row)
		}
		// Normalized minimum must be exactly 1.
		min := row.Clos
		if row.RandomGraph < min {
			min = row.RandomGraph
		}
		if row.TwoStage < min {
			min = row.TwoStage
		}
		if min < 0.999 || min > 1.001 {
			t.Fatalf("row min = %v, want 1", min)
		}
	}
	// Regime check at the extremes: Clos-family wins rack-fit clusters,
	// random graph wins network-wide clusters.
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if first.Clos < first.RandomGraph {
		t.Fatalf("rack-fit clusters: Clos (%v) below random graph (%v)", first.Clos, first.RandomGraph)
	}
	if last.RandomGraph <= 1 {
		t.Fatalf("network-wide clusters: random graph did not win (%v)", last.RandomGraph)
	}
	if !strings.Contains(res.Render(), "Cluster Size") {
		t.Fatal("render missing header")
	}
}

func TestTable2BuildsBothScales(t *testing.T) {
	c := testConfig()
	res, err := c.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.GlobalAPL <= 0 || row.ClosAPL <= 0 {
			t.Fatalf("%s: zero APL", row.Name)
		}
		// Flattening the tree shortens average switch-level paths.
		if row.GlobalAPL >= row.ClosAPL {
			t.Errorf("%s: global APL %v not below Clos APL %v", row.Name, row.GlobalAPL, row.ClosAPL)
		}
	}
}

func TestFig6SmallShape(t *testing.T) {
	c := testConfig()
	res, err := c.Fig6With(
		[]Fig6Case{{Topology: "mini-2", Mode: core.ModeGlobal}},
		[]Method{LPMin, LPAvg, MPTCP4, MPTCP8},
		[]traffic.SyntheticPattern{traffic.PatternPermutation},
	)
	if err != nil {
		t.Fatal(err)
	}
	cells := map[Method]float64{}
	for _, cell := range res.Panels[0].Cells {
		cells[cell.Method] = cell.Normalized
	}
	if cells[LPMin] != 1 {
		t.Fatalf("LP minimum normalized to %v, want 1", cells[LPMin])
	}
	// LP average upper-bounds the others on average throughput; MPTCP
	// sits between the LP bounds (Figure 6's qualitative claim).
	if cells[LPAvg] < cells[MPTCP8]*0.95 {
		t.Fatalf("LP average (%v) below MPTCP8 (%v)", cells[LPAvg], cells[MPTCP8])
	}
	if cells[MPTCP8] < cells[MPTCP4]*0.9 {
		t.Fatalf("MPTCP8 (%v) clearly below MPTCP4 (%v)", cells[MPTCP8], cells[MPTCP4])
	}
	if !strings.Contains(res.Render(), "mini-2") {
		t.Fatal("render missing panel name")
	}
}

func TestFig8SmallShape(t *testing.T) {
	c := testConfig()
	res, err := c.Fig8With([]string{"cache"}, []Fig8Network{FTGlobal, FTClosECMP})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("series = %d", len(res.Series))
	}
	byNet := map[Fig8Network]Fig8Series{}
	for _, s := range res.Series {
		if len(s.FCTs) == 0 {
			t.Fatalf("%v: no FCTs", s.Network)
		}
		byNet[s.Network] = s
	}
	// §5.2: Clos mode with ECMP/TCP is remarkably worse than flat-tree
	// global with k-shortest-path MPTCP for pod-local cache traffic.
	if byNet[FTGlobal].Median() > byNet[FTClosECMP].Median() {
		t.Fatalf("global median %.3f ms above Clos-ECMP %.3f ms",
			byNet[FTGlobal].Median(), byNet[FTClosECMP].Median())
	}
}

func TestFig5RendersPaperAddresses(t *testing.T) {
	out, err := testConfig().Fig5()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"10.0.24.2", "10.0.27.2", "10.0.64.65", "10.0.40.128"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig5 output missing %s:\n%s", want, out)
		}
	}
}

func TestTable3AndRules(t *testing.T) {
	c := testConfig()
	rows, err := c.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Total < r.OCS {
			t.Fatalf("total below OCS: %+v", r)
		}
	}
	rr, err := c.Rules()
	if err != nil {
		t.Fatal(err)
	}
	var maxByMode = map[core.Mode]int{}
	for _, row := range rr.Rows {
		maxByMode[row.Mode] = row.MaxPrefixRules
		if row.SourceRoutedIngress != row.Ingress*4 {
			t.Fatalf("source-routed ingress rules %d != S*k %d", row.SourceRoutedIngress, row.Ingress*4)
		}
		if row.SourceRoutedIngress >= row.MaxPrefixRules*row.Ingress {
			// sanity only; no strict relation
			_ = row
		}
	}
	// Paper's ordering: global(242) > local(180) > Clos(76).
	if !(maxByMode[core.ModeGlobal] > maxByMode[core.ModeLocal] && maxByMode[core.ModeLocal] > maxByMode[core.ModeClos]) {
		t.Fatalf("rule ordering violated: %v", maxByMode)
	}
}

func TestPropsUniform(t *testing.T) {
	c := testConfig()
	res, err := c.Props()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12 {
		t.Fatalf("rows = %d, want 12 (6 topologies x 2 patterns)", len(res.Rows))
	}
	for _, row := range res.Rows {
		// Property 1 (uniform servers) must hold exactly for both
		// patterns on the minis.
		if row.ServerSpread > 1 {
			t.Errorf("%s pattern %d: server spread %d violates Property 1",
				row.Topology, row.Pattern, row.ServerSpread)
		}
		// Property 2 (link types): the minis use m=2 with g=4, the exact
		// case §3.2 flags — "when h/r is a multiple of m, different pods
		// are likely to repeat the same pattern, thus reducing the
		// wiring diversity. In this case pattern 2 is more favorable."
		// So pattern 2 must be perfectly uniform, while pattern 1 shows
		// a bounded repetition spread.
		if row.Pattern == core.Pattern2 {
			if row.EdgeSpread > 0 || row.AggSpread > 0 {
				t.Errorf("%s pattern 2: link spreads %d/%d, want uniform",
					row.Topology, row.EdgeSpread, row.AggSpread)
			}
		} else if row.EdgeSpread > 4 || row.AggSpread > 4 {
			t.Errorf("%s pattern 1: link spreads %d/%d beyond repetition bound",
				row.Topology, row.EdgeSpread, row.AggSpread)
		}
	}
}

func TestAblationK(t *testing.T) {
	rows, err := testConfig().AblationK()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	// §5.1's claims: small k under-exploits path diversity, and beyond
	// the knee more paths stop helping ("larger k cannot improve the
	// throughput further"). On the profiled reduced topology the knee
	// lands at k=4; the invariants are that diversity helps initially
	// and that k past 8 gains nothing.
	byK := map[int]float64{}
	for _, r := range rows {
		byK[r.K] = r.Throughput
	}
	if byK[4] <= byK[1] {
		t.Fatalf("k=4 (%v) not above k=1 (%v): path diversity gained nothing", byK[4], byK[1])
	}
	if byK[16] > byK[8]*1.05 {
		t.Fatalf("k=16 (%v) still improving over k=8 (%v): saturation claim fails", byK[16], byK[8])
	}
	if byK[8] < byK[4]*0.85 {
		t.Fatalf("k=8 (%v) collapsed versus k=4 (%v)", byK[8], byK[4])
	}
}

func TestAblationSideWiring(t *testing.T) {
	rows, err := testConfig().AblationSideWiring()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	ring, linear := rows[0], rows[1]
	if ring.Linear || !linear.Linear {
		t.Fatal("row order wrong")
	}
	if ring.SideLinks <= linear.SideLinks {
		t.Fatalf("ring side links %d not above linear %d", ring.SideLinks, linear.SideLinks)
	}
	// No strict APL ordering exists: linear wiring degrades its boundary
	// converters to `local`, which adds direct edge-core links that can
	// shorten paths even as side connectivity is lost. The two shapes
	// must stay close.
	if diff := ring.APL/linear.APL - 1; diff > 0.15 || diff < -0.15 {
		t.Fatalf("ring APL %v and linear APL %v diverge beyond 15%%", ring.APL, linear.APL)
	}
}

func TestRunRegistry(t *testing.T) {
	res, err := Run("fig5", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != "fig5" || !strings.Contains(res.String(), "10.0.24.2") {
		t.Fatalf("unexpected result %+v", res)
	}
	if _, err := Run("nope", testConfig()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if len(Names()) < 14 {
		t.Fatalf("registry has %d experiments", len(Names()))
	}
}

func TestParamsByName(t *testing.T) {
	c := testConfig()
	if _, err := c.paramsByName("mini-3"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.paramsByName("topo-1"); err == nil {
		t.Fatal("full-scale name resolved at reduced scale")
	}
	full := Config{Full: true}
	if _, err := full.paramsByName("topo-4"); err != nil {
		t.Fatal(err)
	}
}

func TestFlatTreeOptionsFeasibleForTable2(t *testing.T) {
	for _, p := range append(MiniTable2(), topo.Table2()...) {
		opt := flatTreeOptions(p)
		if _, err := core.New(p, opt); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestAblationPacketAgreesWithFluid(t *testing.T) {
	rows, err := testConfig().AblationPacket()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byMode := map[core.Mode]PacketCheckRow{}
	for _, r := range rows {
		byMode[r.Mode] = r
		// Packet-level must track the fluid model within 25% per mode.
		if r.Ratio < 0.75 || r.Ratio > 1.25 {
			t.Errorf("%v: packet/fluid = %.2f outside [0.75, 1.25]", r.Mode, r.Ratio)
		}
	}
	// The headline ordering must survive packet dynamics.
	if byMode[core.ModeGlobal].PacketGbps <= byMode[core.ModeClos].PacketGbps {
		t.Fatalf("packet-level global (%.0f) not above Clos (%.0f)",
			byMode[core.ModeGlobal].PacketGbps, byMode[core.ModeClos].PacketGbps)
	}
}

func TestHybridPlacementWins(t *testing.T) {
	rows, err := testConfig().HybridPlacement()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	hybrid := rows[0]
	if hybrid.Config != "hybrid (planned zones)" {
		t.Fatalf("first row = %s", hybrid.Config)
	}
	bestUniform := 0.0
	for _, r := range rows[1:] {
		if r.Aggregate > bestUniform {
			bestUniform = r.Aggregate
		}
	}
	// §2.1's pitch: matching each tenant's zone beats every one-size
	// topology on aggregate throughput.
	if hybrid.Aggregate <= bestUniform {
		t.Fatalf("hybrid aggregate %.0f not above best uniform %.0f", hybrid.Aggregate, bestUniform)
	}
	// Rack-sized tenants in their Clos zone run at line rate.
	if hybrid.PerTenant["web-1"] < 9.5 {
		t.Fatalf("web-1 in Clos zone at %.2f Gbps, want ~10", hybrid.PerTenant["web-1"])
	}
}

func TestFig8CSVExport(t *testing.T) {
	dir := t.TempDir()
	c := testConfig()
	r, err := c.Fig8With([]string{"web"}, []Fig8Network{FTClosKSP})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dir + "/fig8_web_flat-tree-clos--k-sp.csv")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if lines[0] != "fct_ms,cdf" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) < 10 {
		t.Fatalf("only %d CDF points", len(lines))
	}
	// Monotone CDF column ending at 1.
	if !strings.HasSuffix(lines[len(lines)-1], ",1") {
		t.Fatalf("last point %q does not reach cdf=1", lines[len(lines)-1])
	}
}

func TestRunWithCSVFallsBack(t *testing.T) {
	res, err := RunWithCSV("fig5", testConfig(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Table, "10.0.24.2") {
		t.Fatal("fallback run lost output")
	}
}

func TestAblationGradualFloor(t *testing.T) {
	rows, err := testConfig().AblationGradual()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	atomic, gradual := rows[0], rows[1]
	if atomic.FloorGbps != 0 {
		t.Fatalf("atomic floor = %v", atomic.FloorGbps)
	}
	if gradual.FloorGbps < 60 {
		t.Fatalf("gradual floor = %v, want well above zero", gradual.FloorGbps)
	}
	if gradual.Duration <= atomic.Duration {
		t.Fatal("gradual not slower than atomic")
	}
}

func TestAblationPacketFCTOrdering(t *testing.T) {
	rows, err := testConfig().AblationPacketFCT()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	byMode := map[core.Mode]PacketFCTRow{}
	for _, r := range rows {
		if r.FluidMedianMs <= 0 || r.PacketMedianMs <= 0 {
			t.Fatalf("%v: empty medians %+v", r.Mode, r)
		}
		byMode[r.Mode] = r
	}
	// The topology ordering must agree across fidelity levels: global
	// beats Clos in both simulators.
	if byMode[core.ModeGlobal].FluidMedianMs >= byMode[core.ModeClos].FluidMedianMs {
		t.Fatal("fluid ordering wrong")
	}
	if byMode[core.ModeGlobal].PacketMedianMs >= byMode[core.ModeClos].PacketMedianMs {
		t.Fatal("packet-level ordering diverged from fluid")
	}
	// And the mode ratio should be in the same ballpark (the absolute
	// FCTs differ: packets pay slow start and losses).
	fluidRatio := byMode[core.ModeClos].FluidMedianMs / byMode[core.ModeGlobal].FluidMedianMs
	pktRatio := byMode[core.ModeClos].PacketMedianMs / byMode[core.ModeGlobal].PacketMedianMs
	if rel := pktRatio / fluidRatio; rel < 0.5 || rel > 2.0 {
		t.Fatalf("mode ratios diverged: fluid %.2f vs packet %.2f", fluidRatio, pktRatio)
	}
}

// TestRegistrySweep executes every registered experiment except the
// slowest (fig6, which TestFig6SmallShape covers via its components) and
// sanity-checks the rendered output. This keeps every runner and renderer
// exercised end to end.
func TestRegistrySweep(t *testing.T) {
	skip := map[string]bool{"fig6": true}
	marker := map[string]string{
		"table1":              "Cluster Size",
		"table2":              "APL global",
		"table3":              "Configure OCS",
		"fig5":                "10.0.24.2",
		"fig7":                "median",
		"fig8":                "flat-tree global",
		"fig10":               "27.6%",
		"fig11":               "Spark broadcast",
		"rules":               "242/180/76",
		"props":               "server spread",
		"cost":                "amplifier-free",
		"hybrid-placement":    "hybrid (planned zones)",
		"ablation-wiring":     "pattern",
		"ablation-profile":    "chosen",
		"ablation-sidewiring": "ring",
		"ablation-k":          "concurrent paths",
		"ablation-failures":   "links failed",
		"churn":               "mean FCT churn",
		"ablation-packet":     "packet/fluid",
		"ablation-packet-fct": "median FCT",
		"ablation-gradual":    "bandwidth floor",
		"fbmix_large":         "~p99 ms",
	}
	for _, name := range Names() {
		if skip[name] {
			continue
		}
		name := name
		t.Run(name, func(t *testing.T) {
			res, err := Run(name, testConfig())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, known := marker[name]
			if !known {
				t.Fatalf("experiment %s has no output marker; add one", name)
			}
			if !strings.Contains(res.Table, want) {
				t.Fatalf("%s output missing %q:\n%s", name, want, res.Table)
			}
		})
	}
}

// Median returns the median FCT (ms) of a series.
func (s Fig8Series) Median() float64 { return metrics.Percentile(s.FCTs, 0.5) }
