package control

import (
	"testing"

	"flattree/internal/core"
	"flattree/internal/telemetry"
)

func exampleController(t *testing.T) *Controller {
	t.Helper()
	nw, err := core.ExampleNetwork()
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController(nw, TestbedDelayModel(), map[core.Mode]int{
		core.ModeClos: 4, core.ModeLocal: 4, core.ModeGlobal: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// liveLinks counts the installed topology's links the route table may
// use: the healthy realization's links less the masked ones.
func liveLinks(c *Controller) int {
	n := 0
	for id := range c.Realization().Topo.G.Links() {
		if !c.inc.Banned(id) {
			n++
		}
	}
	return n
}

func TestControllerInitialState(t *testing.T) {
	c := exampleController(t)
	if c.Realization() == nil || c.Table() == nil {
		t.Fatal("controller missing state")
	}
	if got, uniform := c.Network().Mode(); !uniform || got != core.ModeClos {
		t.Fatalf("initial mode = %v (uniform=%v), want clos", got, uniform)
	}
	if c.MaxRulesPerSwitch() <= 0 {
		t.Fatal("no rules installed")
	}
}

func TestConvertReportsDelays(t *testing.T) {
	c := exampleController(t)
	rep, err := c.Convert(core.ModeGlobal)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ConvertersReconfigured == 0 {
		t.Fatal("no converters reconfigured on Clos->global")
	}
	// All 16 converters change: 8 four-port default->local, 8 six-port
	// default->side/cross.
	if rep.ConvertersReconfigured != 16 {
		t.Fatalf("reconfigured = %d, want 16", rep.ConvertersReconfigured)
	}
	if rep.RulesDeleted <= 0 || rep.RulesAdded <= 0 {
		t.Fatalf("rule churn: %d deleted, %d added", rep.RulesDeleted, rep.RulesAdded)
	}
	if rep.OCSTime != 0.160 {
		t.Fatalf("OCS time = %v", rep.OCSTime)
	}
	if rep.Total != rep.OCSTime+rep.DeleteTime+rep.AddTime {
		t.Fatal("total is not the sequential sum")
	}
	// Conversion should finish in roughly a second on the testbed scale
	// ("the network topology can be converted in roughly 1s", §5.3).
	if rep.Total < 0.2 || rep.Total > 3.0 {
		t.Fatalf("total conversion delay = %vs, outside plausible testbed range", rep.Total)
	}
}

func TestConvertNoChangeIsCheap(t *testing.T) {
	c := exampleController(t)
	rep, err := c.Convert(core.ModeClos) // already in Clos
	if err != nil {
		t.Fatal(err)
	}
	if rep.ConvertersReconfigured != 0 {
		t.Fatalf("reconfigured = %d converting to same mode", rep.ConvertersReconfigured)
	}
}

func TestRuleCountsOrderAcrossModes(t *testing.T) {
	// §5.3: max rules per switch differ per topology (242/180/76 on the
	// testbed) because the number of ingress/egress switches differs:
	// global (20 ingress) > local (16) > Clos (8). Verify the ordering.
	c := exampleController(t)
	counts := map[core.Mode]int{}
	ingress := map[core.Mode]int{}
	for _, m := range []core.Mode{core.ModeGlobal, core.ModeLocal, core.ModeClos} {
		if _, err := c.Convert(m); err != nil {
			t.Fatal(err)
		}
		counts[m] = c.MaxRulesPerSwitch()
		ingress[m] = len(c.Table().Ingress)
	}
	if ingress[core.ModeGlobal] != 20 || ingress[core.ModeClos] != 8 {
		t.Fatalf("ingress counts = %v", ingress)
	}
	if ingress[core.ModeLocal] != 16 {
		t.Fatalf("local ingress = %d, want 16 (8 edges + 8 aggs)", ingress[core.ModeLocal])
	}
	if !(counts[core.ModeGlobal] > counts[core.ModeLocal] && counts[core.ModeLocal] > counts[core.ModeClos]) {
		t.Fatalf("rule ordering violated: %v", counts)
	}
}

func TestConvertPodsHybrid(t *testing.T) {
	c := exampleController(t)
	modes := []core.Mode{core.ModeGlobal, core.ModeGlobal, core.ModeLocal, core.ModeClos}
	rep, err := c.ConvertPods(modes)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ConvertersReconfigured == 0 {
		t.Fatal("hybrid conversion reconfigured nothing")
	}
	got := c.Network().PodModes()
	for i, m := range modes {
		if got[i] != m {
			t.Fatalf("pod %d mode = %v, want %v", i, got[i], m)
		}
	}
	if _, err := c.ConvertPods([]core.Mode{core.ModeClos}); err == nil {
		t.Fatal("wrong mode count accepted")
	}
}

func TestParallelDelayModel(t *testing.T) {
	nw, err := core.ExampleNetwork()
	if err != nil {
		t.Fatal(err)
	}
	dm := TestbedDelayModel()
	dm.Parallel = true
	c, err := NewController(nw, dm, nil)
	if err != nil {
		t.Fatal(err)
	}
	repPar, err := c.Convert(core.ModeGlobal)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential baseline for the same conversion.
	nw2, _ := core.ExampleNetwork()
	c2, _ := NewController(nw2, TestbedDelayModel(), nil)
	repSeq, err := c2.Convert(core.ModeGlobal)
	if err != nil {
		t.Fatal(err)
	}
	if repPar.Total >= repSeq.Total {
		t.Fatalf("parallel conversion (%v) not faster than sequential (%v)", repPar.Total, repSeq.Total)
	}
}

func TestBadK(t *testing.T) {
	nw, _ := core.ExampleNetwork()
	if _, err := NewController(nw, TestbedDelayModel(), map[core.Mode]int{core.ModeClos: 0}); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestFailAndRepairLink(t *testing.T) {
	c := exampleController(t)
	if _, err := c.Convert(core.ModeGlobal); err != nil {
		t.Fatal(err)
	}
	// Fail one core-facing link: pick a switch-switch link.
	tp := c.Realization().Topo
	var a, b int
	found := false
	for _, l := range tp.G.Links() {
		na, nb := tp.Nodes[l.A], tp.Nodes[l.B]
		if na.Kind != 0 && nb.Kind != 0 { // not servers
			a, b = l.A, l.B
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no switch link found")
	}
	linksBefore := tp.G.NumLinks()
	if err := c.FailLink(a, b); err != nil {
		t.Fatal(err)
	}
	if got := liveLinks(c); got != linksBefore-1 {
		t.Fatalf("links after failure = %d, want %d", got, linksBefore-1)
	}
	if len(c.FailedLinks()) != 1 {
		t.Fatalf("failed links = %v", c.FailedLinks())
	}
	// Routing still works on the degraded network.
	if c.MaxRulesPerSwitch() <= 0 {
		t.Fatal("no rules after failure")
	}
	// The failure persists across a conversion.
	if _, err := c.Convert(core.ModeClos); err != nil {
		t.Fatal(err)
	}
	if err := c.RepairLink(a, b); err != nil {
		t.Fatal(err)
	}
	if len(c.FailedLinks()) != 0 {
		t.Fatal("failure not cleared by repair")
	}
	if err := c.RepairLink(a, b); err == nil {
		t.Fatal("repairing a healthy link succeeded")
	}
}

func TestFailLinkValidation(t *testing.T) {
	c := exampleController(t)
	if err := c.FailLink(0, 0); err == nil {
		t.Fatal("self link failure accepted")
	}
	if err := c.FailLink(-1, 2); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	// Failing a nonexistent adjacency errors.
	tp := c.Realization().Topo
	s := tp.Servers()
	if err := c.FailLink(s[0], s[1]); err == nil {
		t.Fatal("failing a nonexistent link succeeded")
	}
}

func TestFailLinkRefusesPartition(t *testing.T) {
	c := exampleController(t)
	// Severing a server's only uplink is not a fabric failure; pick a
	// server uplink indirectly: cut every link between an edge switch and
	// all its aggs to try to strand it — the controller must refuse the
	// final cut that partitions the fabric.
	tp := c.Realization().Topo
	edge := tp.Edges()[0]
	var cuts [][2]int
	for _, id := range tp.G.Incident(edge) {
		other := tp.G.Link(id).Other(edge)
		if tp.Nodes[other].Kind != 0 { // a switch
			cuts = append(cuts, [2]int{edge, other})
		}
	}
	var refused bool
	for _, cut := range cuts {
		if err := c.FailLink(cut[0], cut[1]); err != nil {
			refused = true
			break
		}
	}
	if !refused {
		t.Fatal("controller allowed partitioning the edge switch")
	}
	// The controller must still be functional after the refusal.
	if _, err := c.Convert(core.ModeGlobal); err != nil {
		t.Fatal(err)
	}
}

// TestUniformTablesFromSharedCache pins §4.3's precomputed routing state:
// a mode every pod shares takes its table from the shared route cache, so
// converting back to a mode already realized looks the table up instead
// of rebuilding it.
func TestUniformTablesFromSharedCache(t *testing.T) {
	c := exampleController(t)
	reg := telemetry.Enable()
	defer telemetry.Disable()
	for _, m := range []core.Mode{core.ModeGlobal, core.ModeClos, core.ModeGlobal} {
		if _, err := c.Convert(m); err != nil {
			t.Fatal(err)
		}
	}
	hits := reg.Counter("parallel_cache_hits_total", "cache", "route").Value()
	misses := reg.Counter("parallel_cache_misses_total", "cache", "route").Value()
	if hits < 1 || hits+misses != 3 {
		t.Fatalf("three uniform conversions made %d hits and %d misses in the shared route cache, want 3 lookups with the repeat a hit", hits, misses)
	}
	// Routing state from the cache is fully functional.
	if c.MaxRulesPerSwitch() <= 0 || len(c.Table().Ingress) != 20 {
		t.Fatal("cached routing state empty")
	}
}

// TestHybridNeverCached pins that a mixed-mode table never enters the
// shared route cache: a resident daemon quoting many hybrids would
// otherwise fill it with one table per quote.
func TestHybridNeverCached(t *testing.T) {
	c := exampleController(t)
	reg := telemetry.Enable()
	defer telemetry.Disable()
	for i := 0; i < 2; i++ {
		if _, err := c.ConvertPods([]core.Mode{core.ModeGlobal, core.ModeClos, core.ModeClos, core.ModeClos}); err != nil {
			t.Fatal(err)
		}
	}
	hits := reg.Counter("parallel_cache_hits_total", "cache", "route").Value()
	misses := reg.Counter("parallel_cache_misses_total", "cache", "route").Value()
	if hits+misses != 0 {
		t.Fatalf("hybrid conversions made %d hits and %d misses in the shared route cache, want none", hits, misses)
	}
}

// TestFailureRecordSurvivesConversion checks that a recorded failure is
// carried across a conversion: the link stays listed in the new mode, and
// one RepairLink there clears the record.
func TestFailureRecordSurvivesConversion(t *testing.T) {
	c := exampleController(t)
	tp := c.Realization().Topo
	var a, b int
	for _, l := range tp.G.Links() {
		na, nb := tp.Nodes[l.A], tp.Nodes[l.B]
		if na.Kind != 0 && nb.Kind != 0 {
			a, b = l.A, l.B
			break
		}
	}
	if err := c.FailLink(a, b); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Convert(core.ModeGlobal); err != nil {
		t.Fatal(err)
	}
	if got := c.FailedLinks(); len(got) != 1 || got[0] != [3]int{a, b, 1} {
		t.Fatalf("failed links after conversion = %v", got)
	}
	if err := c.RepairLink(a, b); err != nil {
		t.Fatal(err)
	}
	if len(c.FailedLinks()) != 0 {
		t.Fatal("repair left a record behind")
	}
}

func TestFailedLinksSorted(t *testing.T) {
	c := exampleController(t)
	tp := c.Realization().Topo
	var cuts [][2]int
	for _, l := range tp.G.Links() {
		na, nb := tp.Nodes[l.A], tp.Nodes[l.B]
		if na.Kind != 0 && nb.Kind != 0 {
			cuts = append(cuts, [2]int{l.A, l.B})
			if len(cuts) == 3 {
				break
			}
		}
	}
	// Fail in reverse discovery order (skipping cuts the controller
	// refuses as partitioning); the listing must still come back
	// ascending, and identically on every call (the map-iteration bug).
	failed := 0
	for i := len(cuts) - 1; i >= 0; i-- {
		if err := c.FailLink(cuts[i][0], cuts[i][1]); err == nil {
			failed++
		}
	}
	if failed < 2 {
		t.Fatalf("only %d links failed, need at least 2 to observe ordering", failed)
	}
	first := c.FailedLinks()
	for i := 1; i < len(first); i++ {
		a, b := first[i-1], first[i]
		if a[0] > b[0] || (a[0] == b[0] && a[1] > b[1]) {
			t.Fatalf("FailedLinks not sorted: %v", first)
		}
	}
	for trial := 0; trial < 10; trial++ {
		if got := c.FailedLinks(); len(got) != len(first) {
			t.Fatalf("listing length changed: %v vs %v", got, first)
		} else {
			for i := range got {
				if got[i] != first[i] {
					t.Fatalf("listing order changed between calls: %v vs %v", got, first)
				}
			}
		}
	}
}

func TestDormantFailureReappliesAfterConversion(t *testing.T) {
	// §4.3: failures are identified by endpoint node IDs, stable across
	// conversions. A failure recorded on an adjacency only the global
	// mode realizes goes dormant in Clos mode (the broken cable is not in
	// use) and must re-apply when converting back.
	c := exampleController(t)

	// Baseline link counts of both clean modes.
	if _, err := c.Convert(core.ModeClos); err != nil {
		t.Fatal(err)
	}
	closLinks := liveLinks(c)
	if _, err := c.Convert(core.ModeGlobal); err != nil {
		t.Fatal(err)
	}
	globalTopo := c.Realization().Topo
	globalLinks := globalTopo.G.NumLinks()

	// Find an adjacency realized in global mode but not in Clos mode.
	closAdj := make(map[[2]int]bool)
	nw2, err := core.ExampleNetwork()
	if err != nil {
		t.Fatal(err)
	}
	nw2.SetMode(core.ModeClos)
	ct := nw2.Realize().Topo
	for _, l := range ct.G.Links() {
		a, b := l.A, l.B
		if a > b {
			a, b = b, a
		}
		closAdj[[2]int{a, b}] = true
	}
	var ga, gb int
	found := false
	for _, l := range globalTopo.G.Links() {
		na, nb := globalTopo.Nodes[l.A], globalTopo.Nodes[l.B]
		if na.Kind == 0 || nb.Kind == 0 {
			continue
		}
		a, b := l.A, l.B
		if a > b {
			a, b = b, a
		}
		if !closAdj[[2]int{a, b}] {
			ga, gb = l.A, l.B
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no global-only adjacency found")
	}

	if err := c.FailLink(ga, gb); err != nil {
		t.Fatal(err)
	}
	if got := liveLinks(c); got != globalLinks-1 {
		t.Fatalf("links after failure = %d, want %d", got, globalLinks-1)
	}
	// Convert to Clos: the failure is dormant — the surviving Clos
	// realization is at full strength.
	if _, err := c.Convert(core.ModeClos); err != nil {
		t.Fatal(err)
	}
	if got := liveLinks(c); got != closLinks {
		t.Fatalf("dormant failure pruned a Clos link: %d links, want %d", got, closLinks)
	}
	if got := c.FailedLinks(); len(got) != 1 {
		t.Fatalf("dormant failure dropped from the record: %v", got)
	}
	// Convert back: the mask re-applies.
	if _, err := c.Convert(core.ModeGlobal); err != nil {
		t.Fatal(err)
	}
	if got := liveLinks(c); got != globalLinks-1 {
		t.Fatalf("mask did not re-apply after conversion back: %d links, want %d", got, globalLinks-1)
	}
	if err := c.RepairLink(ga, gb); err != nil {
		t.Fatal(err)
	}
	if got := liveLinks(c); got != globalLinks {
		t.Fatalf("links after repair = %d, want %d", got, globalLinks)
	}
}
