// Package graph provides the undirected capacitated multigraph that all
// flat-tree topologies are realized on, together with the path algorithms
// the routing and evaluation layers need: breadth-first shortest paths,
// Dijkstra over weighted links, and Yen's k-shortest loopless paths.
//
// Nodes are dense integer IDs. Links are explicit objects so that parallel
// links (which flat-tree's converter rewiring can create between the same
// switch pair) keep distinct identities and capacities.
package graph

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Link is one undirected edge of the multigraph. A and B are node IDs;
// Capacity is in abstract bandwidth units (the simulator uses Gbps).
type Link struct {
	ID       int
	A, B     int
	Capacity float64
}

// Other returns the endpoint of l that is not n. It panics if n is not an
// endpoint, because that always indicates a wiring bug.
func (l Link) Other(n int) int {
	switch n {
	case l.A:
		return l.B
	case l.B:
		return l.A
	}
	panic(fmt.Sprintf("graph: node %d is not an endpoint of link %d (%d-%d)", n, l.ID, l.A, l.B))
}

// Graph is an undirected multigraph. The zero value is an empty graph ready
// for use.
type Graph struct {
	n     int
	links []Link
	adj   [][]int // node -> incident link IDs
	// core is adj without the links to degree-1 nodes, derived on first
	// use by coreAdj and reset by AddNode and AddLink.
	core atomic.Pointer[[][]int]
}

// New returns a graph with n nodes and no links.
func New(n int) *Graph {
	return &Graph{n: n, adj: make([][]int, n)}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.n }

// NumLinks returns the number of links.
func (g *Graph) NumLinks() int { return len(g.links) }

// AddNode appends a new node and returns its ID.
func (g *Graph) AddNode() int {
	g.adj = append(g.adj, nil)
	g.n++
	g.core.Store(nil)
	return g.n - 1
}

// AddLink connects a and b with the given capacity and returns the link ID.
func (g *Graph) AddLink(a, b int, capacity float64) int {
	if a < 0 || a >= g.n || b < 0 || b >= g.n {
		panic(fmt.Sprintf("graph: AddLink(%d, %d) out of range [0, %d)", a, b, g.n))
	}
	if a == b {
		panic(fmt.Sprintf("graph: self loop on node %d", a))
	}
	id := len(g.links)
	g.links = append(g.links, Link{ID: id, A: a, B: b, Capacity: capacity})
	g.adj[a] = append(g.adj[a], id)
	g.adj[b] = append(g.adj[b], id)
	g.core.Store(nil)
	return id
}

// Link returns the link with the given ID.
func (g *Graph) Link(id int) Link { return g.links[id] }

// Links returns all links. The slice is owned by the graph; callers must not
// modify it.
func (g *Graph) Links() []Link { return g.links }

// Incident returns the IDs of links incident to node n. The slice is owned
// by the graph; callers must not modify it.
func (g *Graph) Incident(n int) []int { return g.adj[n] }

// Degree returns the number of links incident to n.
func (g *Graph) Degree(n int) int { return len(g.adj[n]) }

// Neighbors returns the distinct neighbor node IDs of n in ascending order.
func (g *Graph) Neighbors(n int) []int {
	seen := make(map[int]bool, len(g.adj[n]))
	var out []int
	for _, id := range g.adj[n] {
		m := g.links[id].Other(n)
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	sort.Ints(out)
	return out
}

// HasLinkBetween reports whether at least one link directly connects a and b.
func (g *Graph) HasLinkBetween(a, b int) bool {
	for _, id := range g.adj[a] {
		if g.links[id].Other(a) == b {
			return true
		}
	}
	return false
}

// coreAdj returns the core adjacency: per node, the incident links whose
// far end has degree at least 2, in insertion order. A node with no
// degree-1 neighbour shares its adj slice. The view is built on first use
// after a change; concurrent first uses may each build it, and they agree.
func (g *Graph) coreAdj() [][]int {
	if c := g.core.Load(); c != nil {
		return *c
	}
	c := make([][]int, g.n)
	for u, inc := range g.adj {
		leaves := 0
		for _, id := range inc {
			if len(g.adj[g.links[id].Other(u)]) < 2 {
				leaves++
			}
		}
		if leaves == 0 {
			c[u] = inc
			continue
		}
		c[u] = make([]int, 0, len(inc)-leaves)
		for _, id := range inc {
			if len(g.adj[g.links[id].Other(u)]) >= 2 {
				c[u] = append(c[u], id)
			}
		}
	}
	g.core.CompareAndSwap(nil, &c)
	return c
}

// Clone returns a deep copy of the graph. The copy derives its own core
// adjacency on first use.
func (g *Graph) Clone() *Graph {
	c := &Graph{n: g.n, links: make([]Link, len(g.links)), adj: make([][]int, len(g.adj))}
	copy(c.links, g.links)
	for i, a := range g.adj {
		c.adj[i] = append([]int(nil), a...)
	}
	return c
}

// Path is a walk through the graph: Nodes has one more element than Links,
// and Links[i] connects Nodes[i] to Nodes[i+1].
type Path struct {
	Nodes []int
	Links []int
}

// Len returns the hop count of the path (number of links).
func (p Path) Len() int { return len(p.Links) }

// Valid reports whether the path is structurally consistent with g.
func (p Path) Valid(g *Graph) bool {
	if len(p.Nodes) != len(p.Links)+1 || len(p.Nodes) == 0 {
		return false
	}
	for i, id := range p.Links {
		if id < 0 || id >= g.NumLinks() {
			return false
		}
		l := g.Link(id)
		if !(l.A == p.Nodes[i] && l.B == p.Nodes[i+1]) && !(l.B == p.Nodes[i] && l.A == p.Nodes[i+1]) {
			return false
		}
	}
	return true
}

// Loopless reports whether the path visits each node at most once.
func (p Path) Loopless() bool {
	seen := make(map[int]bool, len(p.Nodes))
	for _, n := range p.Nodes {
		if seen[n] {
			return false
		}
		seen[n] = true
	}
	return true
}

// equalNodes reports whether two paths visit the same node sequence.
func equalNodes(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// BFSDistances returns the hop distance from src to every node, with -1 for
// unreachable nodes.
func (g *Graph) BFSDistances(src int) []int { return g.BFSDistancesBanned(src, nil) }

// BFSDistancesBanned is BFSDistances on the subgraph without the banned
// links. As in KShortestPathsBanned, only true entries ban a link and nil
// bans nothing. A degree-1 neighbour gets its distance but is never
// expanded: its only link leads back to the node that reached it. A
// degree-1 source is expanded like any other. It runs the loop behind
// Yen's distance rows (scratch.distances) on a pooled scratch.
func (g *Graph) BFSDistancesBanned(src int, banned map[int]bool) []int {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	s.fit(g)
	s.bans = sortedBans(s.bans, g, banned)
	dist := make([]int, g.n)
	s.distances(g, src, s.bans, dist)
	return dist
}

// Connected reports whether every node is reachable from node 0. The empty
// graph is connected.
func (g *Graph) Connected() bool {
	if g.n == 0 {
		return true
	}
	dist := g.BFSDistances(0)
	for _, d := range dist {
		if d < 0 {
			return false
		}
	}
	return true
}

// ShortestPath returns a minimum-hop path from src to dst, or ok=false when
// dst is unreachable. Ties are broken deterministically by link insertion
// order. It is Yen's first path: the same pooled search, with k = 1.
func (g *Graph) ShortestPath(src, dst int) (Path, bool) {
	paths := g.KShortestPaths(src, dst, 1)
	if len(paths) == 0 {
		return Path{}, false
	}
	return paths[0], true
}

// AveragePathLength returns the mean BFS hop distance over all ordered pairs
// drawn from nodes. Unreachable pairs are ignored; it returns 0 when there
// are no reachable pairs.
func (g *Graph) AveragePathLength(nodes []int) float64 {
	inSet := make(map[int]bool, len(nodes))
	for _, n := range nodes {
		inSet[n] = true
	}
	var total, count int64
	for _, s := range nodes {
		dist := g.BFSDistances(s)
		for _, t := range nodes {
			if t == s || dist[t] < 0 {
				continue
			}
			total += int64(dist[t])
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return float64(total) / float64(count)
}

// Diameter returns the maximum finite BFS distance between any pair of the
// given nodes.
func (g *Graph) Diameter(nodes []int) int {
	max := 0
	for _, s := range nodes {
		dist := g.BFSDistances(s)
		for _, t := range nodes {
			if dist[t] > max {
				max = dist[t]
			}
		}
	}
	return max
}
