package control

import (
	"strings"
	"testing"

	"flattree/internal/core"
)

// Controller benchmarks on the example network (Figure 2, k=4). A link
// event repairs the installed table in place; a conversion reinstalls:
// it realizes the new modes, takes the healthy table (from the shared
// route cache for a uniform mode) and masks the failure record on it in
// one batch.

// benchQuote keeps BenchmarkQuotePodModes' result live.
var benchQuote *Quote

// BenchmarkControllerFailRepair fails and repairs one switch adjacency of
// the example network in global mode per iteration: two incremental
// events on the installed table.
func BenchmarkControllerFailRepair(b *testing.B) {
	nw, err := core.ExampleNetwork()
	if err != nil {
		b.Fatal(err)
	}
	nw.SetMode(core.ModeGlobal)
	c, err := NewController(nw, TestbedDelayModel(), nil)
	if err != nil {
		b.Fatal(err)
	}
	ab := switchAdjacencies(c.Realization().Topo)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.FailLink(ab[0], ab[1]); err != nil {
			b.Fatal(err)
		}
		if err := c.RepairLink(ab[0], ab[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// recordedController returns a controller for the example network in
// global mode with eight link failures recorded — the first eight
// adjacencies after the first whose failure partitions neither global
// nor Clos mode — and the first adjacency, which stays healthy.
func recordedController(b *testing.B) (*Controller, [2]int) {
	nw, err := core.ExampleNetwork()
	if err != nil {
		b.Fatal(err)
	}
	nw.SetMode(core.ModeGlobal)
	c, err := NewController(nw, TestbedDelayModel(), nil)
	if err != nil {
		b.Fatal(err)
	}
	adj := switchAdjacencies(c.Realization().Topo)
	for _, ab := range adj[1:] {
		if len(c.FailedLinks()) == 8 {
			break
		}
		if err := c.FailLink(ab[0], ab[1]); err != nil {
			if !strings.Contains(err.Error(), "would partition") {
				b.Fatal(err)
			}
			continue
		}
		if _, err := c.Convert(core.ModeClos); err != nil {
			if err := c.RepairLink(ab[0], ab[1]); err != nil {
				b.Fatal(err)
			}
			continue
		}
		if _, err := c.Convert(core.ModeGlobal); err != nil {
			b.Fatal(err)
		}
	}
	if n := len(c.FailedLinks()); n != 8 {
		b.Fatalf("%d failures recorded, want 8", n)
	}
	return c, adj[0]
}

// BenchmarkControllerFailRepairRecorded is BenchmarkControllerFailRepair
// with eight failures recorded on other adjacencies: an event costs the
// pairs it touches, not a replay of the record.
func BenchmarkControllerFailRepairRecorded(b *testing.B) {
	c, ab := recordedController(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.FailLink(ab[0], ab[1]); err != nil {
			b.Fatal(err)
		}
		if err := c.RepairLink(ab[0], ab[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkControllerConvertRecorded converts the example network from
// global mode to Clos and back per iteration with eight failures
// recorded: two reinstalls from the shared route cache, each masking the
// record (dormant where Clos lacks the cable) in one batch.
func BenchmarkControllerConvertRecorded(b *testing.B) {
	c, _ := recordedController(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range []core.Mode{core.ModeClos, core.ModeGlobal} {
			if _, err := c.Convert(m); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkQuotePodModes prices converting the example network from Clos
// to a one-pod global hybrid per iteration, on a fresh clone as flatd's
// /quote/convert does: the Clos table comes from the shared route cache,
// the hybrid's is built.
func BenchmarkQuotePodModes(b *testing.B) {
	nw, err := core.ExampleNetwork()
	if err != nil {
		b.Fatal(err)
	}
	modes := []core.Mode{core.ModeGlobal, core.ModeClos, core.ModeClos, core.ModeClos}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := QuotePodModes(nw.Clone(), TestbedDelayModel(), nil, modes)
		if err != nil {
			b.Fatal(err)
		}
		benchQuote = q
	}
}
