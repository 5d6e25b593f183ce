package routing

import (
	"testing"

	"flattree/internal/core"
	"flattree/internal/topo"
)

// Benchmarks for per-event route repair: the incremental table against
// the whole-table rebuild the churn engine used before. Both process one
// failure plus one repair of the same link per iteration on the churn
// experiment topology (mini-1, k=8), so ns/op is directly comparable —
// the BENCH_pr5.json CI artifact records the pair.

// mini1Topo realizes the churn experiment's fabric, mini-1, in the given
// mode.
func mini1Topo(tb testing.TB, mode core.Mode) *topo.Topology {
	tb.Helper()
	p := topo.ClosParams{
		Name: "mini-1", Pods: 4, EdgesPerPod: 4, AggsPerPod: 4,
		ServersPerEdge: 8, EdgeUplinks: 4, AggUplinks: 4, Cores: 16,
	}
	nw, err := core.New(p, core.Options{N: 1, M: 1, Pattern: core.Pattern1})
	if err != nil {
		tb.Fatal(err)
	}
	nw.SetMode(mode)
	return nw.Realize().Topo
}

// benchTable keeps BenchmarkBuildKShortest's result live.
var benchTable *Table

// BenchmarkBuildKShortest builds mini-1's global-mode table at k=8
// (48 ingress switches, 2,256 pairs) without the cache: the build behind
// every controller reinstall, uncached experiment cell and flatd start.
func BenchmarkBuildKShortest(b *testing.B) {
	tp := mini1Topo(b, core.ModeGlobal)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchTable = BuildKShortest(tp, 8)
	}
}

func BenchmarkRepairIncremental(b *testing.B) {
	tp := mini1Topo(b, core.ModeClos)
	base := BuildKShortest(tp, 8)
	links := switchLinks(tp)
	it := NewIncremental(base, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := links[i%len(links)]
		it.fail(l)
		it.repair(l)
	}
}

// BenchmarkRepairOverlapping keeps a window of three masked links on
// mini-1 in global mode: each iteration fails link i+3 and repairs link
// i. A repair then leaves pairs degraded by the other two masked links,
// which the distance bound may keep without running Yen — the case
// BenchmarkRepairIncremental, whose repair always restores every pair,
// never reaches.
func BenchmarkRepairOverlapping(b *testing.B) {
	const window = 3
	tp := mini1Topo(b, core.ModeGlobal)
	links := switchLinks(tp)
	it := NewIncremental(BuildKShortest(tp, 8), nil)
	for i := 0; i < window; i++ {
		it.fail(links[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it.fail(links[(i+window)%len(links)])
		it.repair(links[i%len(links)])
	}
}

func BenchmarkRepairFullRebuild(b *testing.B) {
	tp := mini1Topo(b, core.ModeClos)
	links := switchLinks(tp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := links[i%len(links)]
		pruned, _ := pruneBanned(tp, map[int]bool{l: true})
		BuildKShortest(pruned, 8) // react to the failure
		BuildKShortest(tp, 8)     // react to the repair
	}
}
