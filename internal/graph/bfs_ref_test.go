package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// refBFSDistancesBanned is BFSDistancesBanned without the leaf skip:
// every node it reaches is enqueued, and the ban set is read for every
// link. It is the oracle for TestBFSDistancesMatchesReference.
func (g *Graph) refBFSDistancesBanned(src int, banned map[int]bool) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int, 1, g.n)
	queue[0] = src
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, id := range g.adj[u] {
			if banned[id] {
				continue
			}
			v := g.links[id].Other(u)
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// checkBFS requires BFSDistancesBanned to equal the reference at every
// node.
func checkBFS(t *testing.T, g *Graph, src int, banned map[int]bool, what string) {
	t.Helper()
	got := g.BFSDistancesBanned(src, banned)
	want := g.refBFSDistancesBanned(src, banned)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: BFSDistancesBanned(%d, %v) on %d nodes/%d links:\n got  %v\n want %v",
			what, src, banned, g.NumNodes(), g.NumLinks(), got, want)
	}
	if banned == nil {
		if got := g.BFSDistances(src); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: BFSDistances(%d) = %v, want %v", what, src, got, want)
		}
	}
}

// TestBFSDistancesMatchesReference compares every distance of the
// leaf-skipping BFS with the reference loop on the generator of
// TestKShortestPathsMatchesReference: multigraphs with parallel links
// and pendant leaves and chains, from every node as the source (leaves
// included), with no ban set, a random one (true and false entries and
// out-of-range IDs), and one holding a leaf's only link. Each trial then
// links a leaf to another node, turning it into a relay, and checks
// every source again on the same graph.
func TestBFSDistancesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(18)
		g := randomMultigraph(rng, n, rng.Intn(3*n), trial%5 != 0)
		addPendants(rng, g, rng.Intn(n))
		checkAll := func(what string) {
			t.Helper()
			bans := []map[int]bool{nil, randomBans(rng, g)}
			if leaves := leafNodes(g); len(leaves) > 0 {
				leaf := leaves[rng.Intn(len(leaves))]
				banned := map[int]bool{rng.Intn(g.NumLinks()): false, -1: true, g.NumLinks(): true}
				banned[g.Incident(leaf)[0]] = true
				bans = append(bans, banned)
			}
			for _, banned := range bans {
				for src := 0; src < g.NumNodes(); src++ {
					checkBFS(t, g, src, banned, what)
				}
			}
		}
		checkAll("generated")
		leaves := leafNodes(g)
		if len(leaves) == 0 {
			continue
		}
		leaf := leaves[rng.Intn(len(leaves))]
		other := rng.Intn(g.NumNodes() - 1)
		if other >= leaf {
			other++
		}
		g.AddLink(leaf, other, 1)
		checkAll("leaf turned relay")
	}
}

// TestBFSDistancesLeafCases pins the cases the random trials reach by
// chance. On the chain 0-1-2-3 with leaf 4 hung on 0: a search from the
// leaf walks the whole chain; banning the leaf's only link cuts it off;
// and once AddLink(4, 3) makes the leaf a relay, the search from 0
// reaches 3 through it in two hops instead of three.
func TestBFSDistancesLeafCases(t *testing.T) {
	g := New(5)
	g.AddLink(0, 1, 1)
	g.AddLink(1, 2, 1)
	g.AddLink(2, 3, 1)
	leafLink := g.AddLink(4, 0, 1)
	for _, tc := range []struct {
		what   string
		src    int
		banned map[int]bool
		want   []int
	}{
		{"leaf source", 4, nil, []int{1, 2, 3, 4, 0}},
		{"leaf reached", 0, nil, []int{0, 1, 2, 3, 1}},
		{"leaf link banned", 0, map[int]bool{leafLink: true}, []int{0, 1, 2, 3, -1}},
		{"leaf source cut off", 4, map[int]bool{leafLink: true}, []int{-1, -1, -1, -1, 0}},
		{"false entry and out-of-range ids", 4, map[int]bool{leafLink: false, -1: true, 99: true}, []int{1, 2, 3, 4, 0}},
	} {
		if got := g.BFSDistancesBanned(tc.src, tc.banned); !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("%s: BFSDistancesBanned(%d, %v) = %v, want %v", tc.what, tc.src, tc.banned, got, tc.want)
		}
	}
	g.AddLink(4, 3, 1)
	if got, want := g.BFSDistances(0), []int{0, 1, 2, 2, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after AddLink(4, 3): BFSDistances(0) = %v, want %v", got, want)
	}
}
