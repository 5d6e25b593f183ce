package graph_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"flattree/internal/core"
	"flattree/internal/graph"
	"flattree/internal/parallel"
	"flattree/internal/telemetry"
	"flattree/internal/topo"
)

// mini1 is the churn experiment's fabric, the one the routing
// benchmarks build their tables on.
var mini1 = topo.ClosParams{
	Name: "mini-1", Pods: 4, EdgesPerPod: 4, AggsPerPod: 4,
	ServersPerEdge: 8, EdgeUplinks: 4, AggUplinks: 4, Cores: 16,
}

// realized returns mini-1 realized in the given mode.
func realized(t *testing.T, mode core.Mode) *topo.Topology {
	t.Helper()
	nw, err := core.New(mini1, core.Options{N: 1, M: 1, Pattern: core.Pattern1})
	if err != nil {
		t.Fatal(err)
	}
	nw.SetMode(mode)
	return nw.Realize().Topo
}

// tablePairs returns what routing.BuildKShortest computes on tp: every
// ordered pair of ingress switches (switches with a server attached),
// ascending. With leaves it appends a few pairs with server endpoints,
// which the searches reach through each server's one link.
func tablePairs(tp *topo.Topology, rng *rand.Rand, leaves int) []graph.PairKey {
	hosts := map[int]bool{}
	for _, s := range tp.Servers() {
		hosts[tp.AttachedSwitch(s)] = true
	}
	var ingress []int
	for _, sw := range tp.Switches() {
		if hosts[sw] {
			ingress = append(ingress, sw)
		}
	}
	var pairs []graph.PairKey
	for _, a := range ingress {
		for _, b := range ingress {
			if a != b {
				pairs = append(pairs, graph.PairKey{Src: a, Dst: b})
			}
		}
	}
	servers := tp.Servers()
	for i := 0; i < leaves; i++ {
		s := servers[rng.Intn(len(servers))]
		other := ingress[rng.Intn(len(ingress))]
		switch i % 3 {
		case 0:
			pairs = append(pairs, graph.PairKey{Src: s, Dst: other})
		case 1:
			pairs = append(pairs, graph.PairKey{Src: other, Dst: s})
		default:
			pairs = append(pairs, graph.PairKey{Src: s, Dst: servers[rng.Intn(len(servers))]})
		}
	}
	return pairs
}

// switchBans bans a random tenth of g's switch-to-switch links, and
// adds entries that must ban nothing: false ones, and IDs outside the
// graph on both sides.
func switchBans(rng *rand.Rand, tp *topo.Topology) map[int]bool {
	banned := map[int]bool{-1: true, tp.G.NumLinks(): true}
	for id, l := range tp.G.Links() {
		if tp.Nodes[l.A].Kind == topo.Server || tp.Nodes[l.B].Kind == topo.Server {
			continue
		}
		switch rng.Intn(10) {
		case 0:
			banned[id] = true
		case 1:
			banned[id] = false
		}
	}
	return banned
}

// sample keeps every step-th pair and the server-endpoint pairs at the
// end, so each destination row still serves several pairs.
func sample(pairs []graph.PairKey, step int) []graph.PairKey {
	var out []graph.PairKey
	for i, pk := range pairs {
		if i%step == 0 || i >= len(pairs)-12 {
			out = append(out, pk)
		}
	}
	return out
}

// checkPairs runs the batch entry point at 1 and 8 workers and requires
// every pair to equal the reference Yen exactly.
func checkPairs(t *testing.T, label string, g *graph.Graph, pairs []graph.PairKey, k int, banned map[int]bool) {
	t.Helper()
	want := make([][]graph.Path, len(pairs))
	for i, pk := range pairs {
		want[i] = g.RefKShortestPathsBanned(pk.Src, pk.Dst, k, banned)
	}
	for _, workers := range []int{1, 8} {
		parallel.SetDefaultWorkers(workers)
		got := g.KShortestPairs(pairs, k, banned)
		parallel.SetDefaultWorkers(0)
		if len(got) != len(pairs) {
			t.Fatalf("%s, %d workers: %d results for %d pairs", label, workers, len(got), len(pairs))
		}
		for i, pk := range pairs {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s, %d workers: pair %v:\n got  %v\n want %v", label, workers, pk, got[i], want[i])
			}
		}
	}
}

// TestKShortestPairsMatchesReference runs the batch entry point, with
// its shared distance rows, on mini-1 realized in every mode and on the
// random graph built from mini-1's equipment: with no links banned and
// with seeded random ban sets, at 1 and 8 workers. Every pair (the
// table's ingress pairs plus some with server endpoints) must equal the
// reference Yen.
func TestKShortestPairsMatchesReference(t *testing.T) {
	rgp := topo.FromClosEquipment(mini1)
	rgp.Seed = 5
	rg, err := topo.BuildRandomGraph(rgp)
	if err != nil {
		t.Fatal(err)
	}
	topos := []*topo.Topology{realized(t, core.ModeClos), realized(t, core.ModeLocal), realized(t, core.ModeGlobal), rg}
	rng := rand.New(rand.NewSource(17))
	for _, tp := range topos {
		pairs := tablePairs(tp, rng, 12)
		if graph.RaceEnabled {
			pairs = sample(pairs, 8)
		}
		for b := 0; b < 3; b++ {
			var banned map[int]bool
			if b > 0 {
				banned = switchBans(rng, tp)
			}
			checkPairs(t, fmt.Sprintf("%s ban set %d", tp.Name, b), tp.G, pairs, 8, banned)
		}
	}
}

// TestYenBoundsFire checks that both bounds do work on the table the
// routing benchmarks build (mini-1 global, k = 8): the counters must
// show spur searches skipped and nodes the depth limit kept out of a
// search, and every pair must still equal the reference Yen.
func TestYenBoundsFire(t *testing.T) {
	reg := telemetry.Enable()
	defer telemetry.Disable()
	tp := realized(t, core.ModeGlobal)
	pairs := tablePairs(tp, nil, 0)
	got := tp.G.KShortestAllPairs(pairs, 8)
	counters := reg.Snapshot().Counters
	spurs, skipped, pruned := counters["graph_yen_spurs_total"], counters["graph_yen_spurs_skipped_total"], counters["graph_yen_pruned_nodes_total"]
	t.Logf("%d pairs: %d spur searches run, %d skipped, %d nodes pruned", len(pairs), spurs, skipped, pruned)
	if spurs == 0 || skipped == 0 || pruned == 0 {
		t.Fatalf("graph_yen_spurs_total = %d, graph_yen_spurs_skipped_total = %d, graph_yen_pruned_nodes_total = %d; want all > 0",
			spurs, skipped, pruned)
	}
	for i, pk := range pairs {
		if graph.RaceEnabled && i%8 != 0 {
			continue
		}
		if want := tp.G.RefKShortestPathsBanned(pk.Src, pk.Dst, 8, nil); !reflect.DeepEqual(got[i], want) {
			t.Fatalf("pair %v:\n got  %v\n want %v", pk, got[i], want)
		}
	}
}
