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

// Path is a walk through the graph: Nodes has one more element than Links,
// and Links[i] connects Nodes[i] to Nodes[i+1].
type Path struct {
	Nodes []int
	Links []int
}

// Len returns the hop count of the path (number of links).
func (p Path) Len() int { return len(p.Links) }

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
// links. As in KShortestPairs, only true entries ban a link and nil
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
