package graph

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"flattree/internal/parallel"
)

// randomMultigraph returns a graph on n nodes with about extra links on
// top of a random spanning forest. Endpoints repeat freely, so parallel
// links are common; with connected false some nodes stay unreachable.
func randomMultigraph(rng *rand.Rand, n, extra int, connected bool) *Graph {
	g := New(n)
	for i := 1; i < n; i++ {
		if connected || rng.Intn(4) != 0 {
			g.AddLink(i, rng.Intn(i), 1)
		}
	}
	for e := 0; e < extra; e++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			g.AddLink(a, b, 1)
		}
	}
	return g
}

// addPendants hangs count new degree-1 nodes off random nodes, earlier
// pendants included: a pendant that receives another becomes a degree-2
// node on a chain, so the graph gains leaves at the end of short chains
// as well as leaves on core nodes.
func addPendants(rng *rand.Rand, g *Graph, count int) {
	for i := 0; i < count; i++ {
		v := g.AddNode()
		g.AddLink(v, rng.Intn(v), 1)
	}
}

// leafNodes returns the degree-1 nodes of g, ascending.
func leafNodes(g *Graph) []int {
	var out []int
	for v := 0; v < g.NumNodes(); v++ {
		if g.Degree(v) == 1 {
			out = append(out, v)
		}
	}
	return out
}

// pickNode returns a random node of g, a leaf one time in three when g
// has any.
func pickNode(rng *rand.Rand, g *Graph) int {
	if leaves := leafNodes(g); len(leaves) > 0 && rng.Intn(3) == 0 {
		return leaves[rng.Intn(len(leaves))]
	}
	return rng.Intn(g.NumNodes())
}

// randomBans returns a ban set mixing true entries, false entries (which
// ban nothing) and IDs outside the graph on both sides (which are
// ignored).
func randomBans(rng *rand.Rand, g *Graph) map[int]bool {
	if rng.Intn(5) == 0 {
		return nil
	}
	banned := map[int]bool{}
	for id := 0; id < g.NumLinks(); id++ {
		switch rng.Intn(6) {
		case 0:
			banned[id] = true
		case 1:
			banned[id] = false
		}
	}
	banned[-1-rng.Intn(3)] = rng.Intn(2) == 0
	banned[g.NumLinks()+rng.Intn(3)] = true
	return banned
}

// checkAgainstReference requires the kernel's paths to equal the
// reference Yen's exactly: node sequences, link IDs, order and count.
func checkAgainstReference(g *Graph, src, dst, k int, banned map[int]bool) error {
	got := g.KShortestPathsBanned(src, dst, k, banned)
	want := g.refKShortestPathsBanned(src, dst, k, banned)
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("KShortestPathsBanned(%d, %d, k=%d, banned=%v) on %d nodes/%d links:\n got  %v\n want %v",
			src, dst, k, banned, g.NumNodes(), g.NumLinks(), got, want)
	}
	return nil
}

// TestKShortestPathsMatchesReference is the differential test behind the
// kernel's byte-identity contract: on seeded random multigraphs with
// parallel links and pendant degree-1 nodes, random ban sets and k from 1
// to 10, the pooled stamped Yen returns exactly the reference Yen's
// paths, and ShortestPath its first search. Endpoints are leaves a third
// of the time each, so leaf sources, leaf destinations (where the search
// must walk the full adjacency) and leaf-to-leaf pairs all occur.
func TestKShortestPathsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(18)
		g := randomMultigraph(rng, n, rng.Intn(3*n), trial%5 != 0)
		addPendants(rng, g, rng.Intn(n))
		banned := randomBans(rng, g)
		src, dst := pickNode(rng, g), pickNode(rng, g)
		for k := 1; k <= 10; k++ {
			if err := checkAgainstReference(g, src, dst, k, banned); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		got, gotOK := g.ShortestPath(src, dst)
		want, wantOK := g.refShortestPathFiltered(src, dst, nil, nil)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: ShortestPath(%d, %d) = %v, %v; want %v, %v", trial, src, dst, got, gotOK, want, wantOK)
		}
	}
}

// TestKShortestPathsAfterGraphChange checks that searches see links and
// nodes added after an earlier search: the core adjacency that lets a
// search skip leaves must be rebuilt, or it keeps skipping a former leaf
// that is now a transit node. The first case is exact: 0-1-2-3 is the
// only path until AddLink makes leaf 4 a shortcut, and a search from a
// node added after it must not index past the old view. The random rounds
// search, then turn a leaf into a transit node and hang a new leaf with
// AddNode, and search again; each round runs on 8 workers, so the
// rebuilt view's first use is concurrent (and checked under -race).
func TestKShortestPathsAfterGraphChange(t *testing.T) {
	g := New(6)
	for _, l := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 5}, {0, 4}} {
		g.AddLink(l[0], l[1], 1)
	}
	if err := checkAgainstReference(g, 0, 3, 2, nil); err != nil {
		t.Fatal(err)
	}
	g.AddLink(4, 3, 1)
	if err := checkAgainstReference(g, 0, 3, 2, nil); err != nil {
		t.Fatalf("after AddLink(4, 3): %v", err)
	}
	if p, _ := g.ShortestPath(0, 3); !slices.Equal(p.Nodes, []int{0, 4, 3}) {
		t.Fatalf("ShortestPath(0, 3) = %v after AddLink(4, 3), want the new shortcut [0 4 3]", p.Nodes)
	}
	if v := g.AddNode(); len(g.KShortestPaths(v, 3, 2)) != 0 {
		t.Fatalf("isolated node %d reaches node 3", v)
	}

	rng := rand.New(rand.NewSource(41))
	pool := parallel.New(parallel.Config{Workers: 8})
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(12)
		g := randomMultigraph(rng, n, rng.Intn(2*n), true)
		addPendants(rng, g, 1+rng.Intn(n))
		for round := 0; round < 4; round++ {
			type task struct{ src, dst, k int }
			tasks := make([]task, 32)
			for i := range tasks {
				tasks[i] = task{pickNode(rng, g), pickNode(rng, g), 1 + rng.Intn(6)}
			}
			errs := make([]error, len(tasks))
			pool.ForEach(len(tasks), func(i int) {
				errs[i] = checkAgainstReference(g, tasks[i].src, tasks[i].dst, tasks[i].k, nil)
			})
			for i, err := range errs {
				if err != nil {
					t.Fatalf("trial %d round %d task %d: %v", trial, round, i, err)
				}
			}
			leaves := leafNodes(g)
			leaf := leaves[rng.Intn(len(leaves))]
			if other := rng.Intn(g.NumNodes()); other != leaf {
				g.AddLink(leaf, other, 1)
			}
			addPendants(rng, g, 1)
		}
	}
}

// mixedSizeGraphs is the graph sequence the scratch-reuse tests walk:
// small, larger, small again, then denser and larger again. The larger
// graph has more nodes but fewer links than the small one and the denser
// one more links but fewer nodes than the larger, so moving along the
// sequence regrows one mark array while the other keeps its old stamps —
// the case where a stamp reset would turn stale marks into live ones.
func mixedSizeGraphs(rng *rand.Rand) []*Graph {
	small := randomMultigraph(rng, 6, 60, true)
	larger := randomMultigraph(rng, 40, 6, true)
	denser := randomMultigraph(rng, 8, 160, true)
	return []*Graph{small, larger, small, denser, larger}
}

// TestKShortestPathsPoolMixedSizes runs the mixed-size sequence through
// the shared scratch pool on 8 workers, so scratch sized for one graph
// serves the next, and compares every result with the reference.
func TestKShortestPathsPoolMixedSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type task struct {
		src, dst int
		k        int
		banned   map[int]bool
	}
	pool := parallel.New(parallel.Config{Workers: 8})
	for step, g := range mixedSizeGraphs(rng) {
		tasks := make([]task, 96)
		for i := range tasks {
			tasks[i] = task{src: rng.Intn(g.NumNodes()), dst: rng.Intn(g.NumNodes()),
				k: 1 + rng.Intn(10), banned: randomBans(rng, g)}
		}
		errs := make([]error, len(tasks))
		pool.ForEach(len(tasks), func(i int) {
			tk := tasks[i]
			errs[i] = checkAgainstReference(g, tk.src, tk.dst, tk.k, tk.banned)
		})
		for i, err := range errs {
			if err != nil {
				t.Fatalf("step %d task %d: %v", step, i, err)
			}
		}
	}
}

// TestScratchStampsAcrossGraphsAndWrap drives one scratch directly
// through the mixed-size sequence and then across the stamp counter's
// wraparound, so the regrow and wrap paths run deterministically rather
// than whenever the pool happens to hand them out. Besides matching the
// reference, every call must leave no mark ahead of the counter: a
// stamp restarted while either array kept its marks would break that at
// once, long before the counter climbs back to a stale mark and bans a
// link by accident.
func TestScratchStampsAcrossGraphsAndWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var s scratch
	run := func(label string, g *Graph, reps int) {
		t.Helper()
		for r := 0; r < reps; r++ {
			src, dst, k := rng.Intn(g.NumNodes()), rng.Intn(g.NumNodes()), 1+rng.Intn(10)
			banned := randomBans(rng, g)
			got := s.yen(g, src, dst, k, banned)
			want := g.refKShortestPathsBanned(src, dst, k, banned)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s rep %d: yen(%d, %d, k=%d, banned=%v) = %v, want %v", label, r, src, dst, k, banned, got, want)
			}
			if m := max(slices.Max(s.visit), slices.Max(s.ban)); m > s.stamp {
				t.Fatalf("%s rep %d: a mark holds stamp %d, ahead of the counter at %d", label, r, m, s.stamp)
			}
		}
	}
	graphs := mixedSizeGraphs(rng)
	for step, g := range graphs {
		run(fmt.Sprintf("step %d", step), g, 60)
	}
	s.stamp = math.MaxUint32 - 20
	run("across wrap", graphs[1], 20)
	if s.stamp >= math.MaxUint32-20 {
		t.Fatalf("stamp %d: the counter never wrapped", s.stamp)
	}
	run("after wrap", graphs[3], 20)
}

// TestKShortestPathsAllocs guards the allocation profile of Yen on the
// mini-1-shaped bench graph: per call, the pooled scratch leaves only
// the caller's result (the path slice and one backing array). The
// reference Yen makes about 600 allocations here.
func TestKShortestPathsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled scratch")
	}
	g := benchGraph()
	g.KShortestPaths(0, 47, 8) // size the pooled scratch
	allocs := testing.AllocsPerRun(200, func() {
		g.KShortestPaths(0, 47, 8)
	})
	if allocs > 8 {
		t.Fatalf("KShortestPaths(0, 47, 8) made %.1f allocations per call, want at most 8", allocs)
	}
}
