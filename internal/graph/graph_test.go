package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// ring returns a cycle graph of n nodes.
func ring(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddLink(i, (i+1)%n, 1)
	}
	return g
}

// grid returns an r x c grid graph; node id = row*c + col.
func grid(r, c int) *Graph {
	g := New(r * c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c {
				g.AddLink(i*c+j, i*c+j+1, 1)
			}
			if i+1 < r {
				g.AddLink(i*c+j, (i+1)*c+j, 1)
			}
		}
	}
	return g
}

func TestAddLinkAndAccessors(t *testing.T) {
	g := New(3)
	id := g.AddLink(0, 1, 10)
	if got := g.Link(id); got.A != 0 || got.B != 1 || got.Capacity != 10 {
		t.Fatalf("Link(%d) = %+v", id, got)
	}
	if g.NumNodes() != 3 || g.NumLinks() != 1 {
		t.Fatalf("NumNodes=%d NumLinks=%d", g.NumNodes(), g.NumLinks())
	}
	if g.Degree(0) != 1 || g.Degree(2) != 0 {
		t.Fatalf("degrees wrong: %d %d", g.Degree(0), g.Degree(2))
	}
	n := g.AddNode()
	if n != 3 || g.NumNodes() != 4 {
		t.Fatalf("AddNode = %d, NumNodes = %d", n, g.NumNodes())
	}
}

func TestParallelLinks(t *testing.T) {
	g := New(2)
	g.AddLink(0, 1, 1)
	g.AddLink(0, 1, 1)
	if g.NumLinks() != 2 {
		t.Fatalf("want 2 parallel links, got %d", g.NumLinks())
	}
	if got := g.Neighbors(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Neighbors(0) = %v", got)
	}
	if g.Degree(0) != 2 {
		t.Fatalf("Degree(0) = %d, want 2 (parallel links count)", g.Degree(0))
	}
}

func TestLinkOtherPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Other on non-endpoint did not panic")
		}
	}()
	l := Link{ID: 0, A: 1, B: 2}
	l.Other(3)
}

func TestAddLinkValidation(t *testing.T) {
	g := New(2)
	for _, bad := range [][2]int{{0, 0}, {0, 5}, {-1, 1}} {
		func() {
			defer func() { recover() }()
			g.AddLink(bad[0], bad[1], 1)
			t.Errorf("AddLink(%d, %d) did not panic", bad[0], bad[1])
		}()
	}
}

func TestBFSDistancesRing(t *testing.T) {
	g := ring(6)
	d := g.BFSDistances(0)
	want := []int{0, 1, 2, 3, 2, 1}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("dist[%d] = %d, want %d", i, d[i], want[i])
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := New(3)
	g.AddLink(0, 1, 1)
	d := g.BFSDistances(0)
	if d[2] != -1 {
		t.Fatalf("dist to isolated node = %d, want -1", d[2])
	}
	if g.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
}

func TestConnected(t *testing.T) {
	if !New(0).Connected() {
		t.Fatal("empty graph should be connected")
	}
	if !ring(5).Connected() {
		t.Fatal("ring should be connected")
	}
}

func TestShortestPath(t *testing.T) {
	g := grid(3, 3)
	p, ok := g.ShortestPath(0, 8)
	if !ok {
		t.Fatal("no path found in grid")
	}
	if p.Len() != 4 {
		t.Fatalf("path length %d, want 4", p.Len())
	}
	if !p.Valid(g) || !p.Loopless() {
		t.Fatalf("invalid path %+v", p)
	}
	if p.Nodes[0] != 0 || p.Nodes[len(p.Nodes)-1] != 8 {
		t.Fatalf("wrong endpoints %v", p.Nodes)
	}
}

func TestShortestPathSelf(t *testing.T) {
	g := ring(4)
	p, ok := g.ShortestPath(2, 2)
	if !ok || p.Len() != 0 || len(p.Nodes) != 1 {
		t.Fatalf("self path = %+v ok=%v", p, ok)
	}
}

func TestKShortestPathsRing(t *testing.T) {
	g := ring(6)
	paths := g.KShortestPaths(0, 3, 4)
	// A 6-ring has exactly two loopless 0->3 paths, both length 3.
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2", len(paths))
	}
	for _, p := range paths {
		if p.Len() != 3 || !p.Valid(g) || !p.Loopless() {
			t.Fatalf("bad path %+v", p)
		}
	}
	if equalNodes(paths[0].Nodes, paths[1].Nodes) {
		t.Fatal("duplicate paths returned")
	}
}

func TestKShortestPathsOrderedAndDistinct(t *testing.T) {
	g := grid(4, 4)
	paths := g.KShortestPaths(0, 15, 12)
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	seen := map[string]bool{}
	last := 0
	for i, p := range paths {
		if !p.Valid(g) {
			t.Fatalf("path %d invalid", i)
		}
		if !p.Loopless() {
			t.Fatalf("path %d has a loop: %v", i, p.Nodes)
		}
		if p.Len() < last {
			t.Fatalf("paths not ordered by length at %d", i)
		}
		last = p.Len()
		k := pathKey(p.Nodes)
		if seen[k] {
			t.Fatalf("duplicate path %v", p.Nodes)
		}
		seen[k] = true
		if p.Nodes[0] != 0 || p.Nodes[len(p.Nodes)-1] != 15 {
			t.Fatalf("path %d endpoints wrong: %v", i, p.Nodes)
		}
	}
	// 4x4 grid: first several shortest paths all have 6 hops; the count of
	// 6-hop paths is C(6,3)=20 >= 12, so all requested must be length 6.
	for i, p := range paths {
		if p.Len() != 6 {
			t.Fatalf("path %d length %d, want 6", i, p.Len())
		}
	}
	if len(paths) != 12 {
		t.Fatalf("got %d paths, want 12", len(paths))
	}
}

func TestKShortestDeterministic(t *testing.T) {
	g := grid(4, 5)
	a := g.KShortestPaths(0, 19, 8)
	b := g.KShortestPaths(0, 19, 8)
	if len(a) != len(b) {
		t.Fatal("nondeterministic path count")
	}
	for i := range a {
		if !equalNodes(a[i].Nodes, b[i].Nodes) {
			t.Fatalf("nondeterministic path %d: %v vs %v", i, a[i].Nodes, b[i].Nodes)
		}
	}
}

func TestKShortestUnreachableAndZero(t *testing.T) {
	g := New(3)
	g.AddLink(0, 1, 1)
	if p := g.KShortestPaths(0, 2, 4); p != nil {
		t.Fatalf("paths to unreachable node: %v", p)
	}
	if p := g.KShortestPaths(0, 1, 0); p != nil {
		t.Fatalf("k=0 returned paths: %v", p)
	}
}

func TestKShortestAllPairs(t *testing.T) {
	g := grid(3, 4)
	pairs := []PairKey{{0, 11}, {11, 0}, {1, 10}, {5, 6}}
	got := g.KShortestAllPairs(pairs, 3)
	if len(got) != len(pairs) {
		t.Fatalf("got %d entries, want %d", len(got), len(pairs))
	}
	for i, pk := range pairs {
		seq := g.KShortestPaths(pk.Src, pk.Dst, 3)
		par := got[i]
		if len(seq) != len(par) {
			t.Fatalf("pair %v: %d vs %d paths", pk, len(par), len(seq))
		}
		for i := range seq {
			if !equalNodes(seq[i].Nodes, par[i].Nodes) {
				t.Fatalf("pair %v path %d differs", pk, i)
			}
		}
	}
}

func TestAveragePathLength(t *testing.T) {
	g := ring(4)
	nodes := []int{0, 1, 2, 3}
	// Distances: 8 pairs at distance 1, 4 at distance 2 => avg = 16/12.
	got := g.AveragePathLength(nodes)
	want := 16.0 / 12.0
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("APL = %v, want %v", got, want)
	}
}

func TestDiameter(t *testing.T) {
	g := grid(3, 3)
	all := make([]int, 9)
	for i := range all {
		all[i] = i
	}
	if d := g.Diameter(all); d != 4 {
		t.Fatalf("diameter = %d, want 4", d)
	}
}

func TestClone(t *testing.T) {
	g := ring(4)
	c := g.Clone()
	c.AddLink(0, 2, 1)
	if g.NumLinks() != 4 || c.NumLinks() != 5 {
		t.Fatalf("clone not independent: %d, %d", g.NumLinks(), c.NumLinks())
	}
}

func TestPathValidRejectsGarbage(t *testing.T) {
	g := ring(4)
	bad := Path{Nodes: []int{0, 2}, Links: []int{0}}
	if bad.Valid(g) {
		t.Fatal("path with wrong link accepted")
	}
	empty := Path{}
	if empty.Valid(g) {
		t.Fatal("empty path accepted")
	}
}

// Property: on random connected graphs, KShortestPaths returns loopless,
// valid, distinct paths in nondecreasing length order, and the first has
// BFS-optimal length.
func TestKShortestProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(12)
		g := New(n)
		// Random spanning tree for connectivity, then extra links.
		for i := 1; i < n; i++ {
			g.AddLink(i, rng.Intn(i), 1)
		}
		extra := rng.Intn(2 * n)
		for e := 0; e < extra; e++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				g.AddLink(a, b, 1)
			}
		}
		src, dst := rng.Intn(n), rng.Intn(n)
		if src == dst {
			dst = (dst + 1) % n
		}
		k := 1 + rng.Intn(6)
		paths := g.KShortestPaths(src, dst, k)
		if len(paths) == 0 || len(paths) > k {
			return false
		}
		bfs := g.BFSDistances(src)
		if paths[0].Len() != bfs[dst] {
			return false
		}
		seen := map[string]bool{}
		last := 0
		for _, p := range paths {
			if !p.Valid(g) || !p.Loopless() || p.Len() < last {
				return false
			}
			last = p.Len()
			key := pathKey(p.Nodes)
			if seen[key] {
				return false
			}
			seen[key] = true
			if p.Nodes[0] != src || p.Nodes[len(p.Nodes)-1] != dst {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestKShortestPathsBannedAvoidsBans checks the incremental-repair entry
// point: banned links never appear in any returned path, a nil ban set
// reproduces KShortestPaths exactly, and banning a cut disconnects.
func TestKShortestPathsBannedAvoidsBans(t *testing.T) {
	g := grid(3, 4)
	src, dst := 0, 11
	plain := g.KShortestPaths(src, dst, 4)
	nilBanned := g.KShortestPathsBanned(src, dst, 4, nil)
	if len(plain) != len(nilBanned) {
		t.Fatalf("nil ban set: %d paths, want %d", len(nilBanned), len(plain))
	}
	for i := range plain {
		if !equalNodes(plain[i].Nodes, nilBanned[i].Nodes) {
			t.Fatalf("nil ban set path %d = %v, want %v", i, nilBanned[i].Nodes, plain[i].Nodes)
		}
	}

	banned := map[int]bool{plain[0].Links[0]: true, plain[0].Links[1]: true}
	for _, p := range g.KShortestPathsBanned(src, dst, 4, banned) {
		if !p.Valid(g) || !p.Loopless() {
			t.Fatalf("invalid banned-Yen path %v", p)
		}
		for _, id := range p.Links {
			if banned[id] {
				t.Fatalf("path %v uses banned link %d", p.Nodes, id)
			}
		}
	}

	// Banning every link incident to src disconnects it.
	cut := map[int]bool{}
	for _, id := range g.Incident(src) {
		cut[id] = true
	}
	if got := g.KShortestPathsBanned(src, dst, 4, cut); got != nil {
		t.Fatalf("cut source still yields paths: %v", got)
	}
}

// TestKShortestPathsBannedMatchesRebuild pins the equivalence the
// incremental route table relies on: Yen with a banned-link set equals
// Yen on a graph rebuilt without those links (same node sequences, same
// order), across random graphs, ban sets, and parallel links.
func TestKShortestPathsBannedMatchesRebuild(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(10)
		g := New(n)
		for i := 1; i < n; i++ {
			g.AddLink(i, rng.Intn(i), 1)
		}
		extra := rng.Intn(3 * n)
		for e := 0; e < extra; e++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				g.AddLink(a, b, 1) // may create parallel links
			}
		}
		banned := map[int]bool{}
		for _, id := range rng.Perm(g.NumLinks())[:rng.Intn(g.NumLinks())] {
			if rng.Intn(2) == 0 {
				banned[id] = true
			}
		}
		// Rebuild without the banned links, preserving relative link order,
		// and remember each rebuilt link's original ID.
		rb := New(n)
		var origID []int
		for _, l := range g.Links() {
			if banned[l.ID] {
				continue
			}
			rb.AddLink(l.A, l.B, l.Capacity)
			origID = append(origID, l.ID)
		}
		src, dst := rng.Intn(n), rng.Intn(n)
		if src == dst {
			dst = (dst + 1) % n
		}
		k := 1 + rng.Intn(6)
		got := g.KShortestPathsBanned(src, dst, k, banned)
		want := rb.KShortestPaths(src, dst, k)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if !equalNodes(got[i].Nodes, want[i].Nodes) {
				return false
			}
			for j, id := range want[i].Links {
				if got[i].Links[j] != origID[id] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
