package core_test

import (
	"fmt"
	"math"
	"testing"

	"flattree/internal/core"
	"flattree/internal/experiments"
	"flattree/internal/parallel"
	"flattree/internal/topo"
)

// refServerAPL is the per-pair form of serverAPL: one BFS per sampled
// server and one float64 term per reachable server pair. It is the
// oracle for TestProfileMNMatchesPerPairReference.
func refServerAPL(r *core.Realization, stride int) float64 {
	t := r.Topo
	servers := t.Servers()
	var total float64
	var count int64
	for i := 0; i < len(servers); i += stride {
		src := t.AttachedSwitch(servers[i])
		dist := t.G.BFSDistances(src)
		for j, s := range servers {
			if j == i {
				continue
			}
			d := dist[t.AttachedSwitch(s)]
			if d < 0 {
				continue
			}
			total += float64(d)
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return total / float64(count)
}

// refProfileMN is ProfileMN's serial sweep over refServerAPL.
func refProfileMN(clos topo.ClosParams, pattern core.Pattern, stride int) (best core.ProfileResult, all []core.ProfileResult, ok bool) {
	g := clos.AggUplinks / clos.R()
	best.AvgPathLength = math.Inf(1)
	for total := 1; total <= min(g, clos.ServersPerEdge); total++ {
		for m := 0; m <= total; m++ {
			n := total - m
			nw, err := core.New(clos, core.Options{N: n, M: m, Pattern: pattern})
			if err != nil {
				continue
			}
			nw.SetMode(core.ModeGlobal)
			apl := refServerAPL(nw.Realize(), stride)
			res := core.ProfileResult{N: n, M: m, AvgPathLength: apl}
			all = append(all, res)
			if apl < best.AvgPathLength-1e-12 ||
				(math.Abs(apl-best.AvgPathLength) <= 1e-12 && (n+m > best.N+best.M ||
					(n+m == best.N+best.M && m > best.M))) {
				best = res
			}
		}
	}
	return best, all, !math.IsInf(best.AvgPathLength, 1)
}

// sameProfile reports whether two results agree on N, M and the bits of
// AvgPathLength.
func sameProfile(a, b core.ProfileResult) bool {
	return a.N == b.N && a.M == b.M && math.Float64bits(a.AvgPathLength) == math.Float64bits(b.AvgPathLength)
}

// checkProfile requires ProfileMN to return the per-pair reference's best
// and every candidate exactly, in order.
func checkProfile(t *testing.T, clos topo.ClosParams, pattern core.Pattern, stride int) {
	t.Helper()
	best, all, err := core.ProfileMN(clos, pattern, stride)
	wantBest, wantAll, ok := refProfileMN(clos, pattern, stride)
	where := fmt.Sprintf("%s pattern %d stride %d workers %d", clos.Name, pattern, stride, parallel.DefaultWorkers())
	if (err == nil) != ok {
		t.Fatalf("%s: err = %v, reference feasible = %v", where, err, ok)
	}
	if !sameProfile(best, wantBest) {
		t.Fatalf("%s: best = %+v, want %+v", where, best, wantBest)
	}
	if len(all) != len(wantAll) {
		t.Fatalf("%s: %d candidates, want %d", where, len(all), len(wantAll))
	}
	for i := range all {
		if !sameProfile(all[i], wantAll[i]) {
			t.Fatalf("%s: candidate %d = %+v, want %+v", where, i, all[i], wantAll[i])
		}
	}
}

// miniParams returns the reduced Table 2 topology of the given name.
func miniParams(t testing.TB, name string) topo.ClosParams {
	t.Helper()
	for _, p := range experiments.MiniTable2() {
		if p.Name == name {
			return p
		}
	}
	t.Fatalf("no reduced topology %q", name)
	return topo.ClosParams{}
}

// TestProfileMNMatchesPerPairReference is the differential test behind
// the per-switch profile: on the example fabric and mini-1 to mini-3,
// under both wiring patterns, at strides 1, 2, 3 and 7 and on pools of 1
// and 8 workers, ProfileMN's best and every candidate equal the per-pair
// sweep's, average path lengths bit for bit. Unless -short, topo-2 at its
// production stride (1,728 servers / 128 → 13) runs too.
func TestProfileMNMatchesPerPairReference(t *testing.T) {
	closes := []topo.ClosParams{core.ExampleClos()}
	for _, name := range []string{"mini-1", "mini-2", "mini-3"} {
		closes = append(closes, miniParams(t, name))
	}
	defer parallel.SetDefaultWorkers(0)
	for _, workers := range []int{1, 8} {
		parallel.SetDefaultWorkers(workers)
		for _, clos := range closes {
			for _, pattern := range []core.Pattern{core.Pattern1, core.Pattern2} {
				for _, stride := range []int{1, 2, 3, 7} {
					checkProfile(t, clos, pattern, stride)
				}
			}
		}
	}
	if testing.Short() {
		return
	}
	topo2, err := topo.Table2ByName("topo-2")
	if err != nil {
		t.Fatal(err)
	}
	parallel.SetDefaultWorkers(8)
	checkProfile(t, topo2, core.Pattern1, topo2.TotalServers()/128)
}

// BenchmarkProfileMN is the cold-start profile every flat-tree network
// build runs once per process: mini-1, pattern 1, every server a source.
func BenchmarkProfileMN(b *testing.B) {
	clos := miniParams(b, "mini-1")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.ProfileMN(clos, core.Pattern1, 1); err != nil {
			b.Fatal(err)
		}
	}
}
