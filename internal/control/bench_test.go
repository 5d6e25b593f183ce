package control

import (
	"testing"

	"flattree/internal/core"
)

// Controller benchmarks on the example network (Figure 2, k=4). Each
// controller event reinstalls: it realizes the current modes, takes the
// healthy table (from the shared route cache for a uniform mode) and
// masks the recorded failures on it.

// benchQuote keeps BenchmarkQuotePodModes' result live.
var benchQuote *Quote

// BenchmarkControllerFailRepair fails and repairs one switch adjacency of
// the example network in global mode per iteration: two reinstalls, each
// with the uniform table served from the shared route cache.
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
