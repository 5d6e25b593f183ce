package graph

import (
	"math"
	"slices"
	"sync"
)

// scratch is the reusable state behind every path search in this
// package: Yen's first path and each of its spurs all run the one
// breadth-first search below over it, and every hop-distance
// array (BFSDistancesBanned, Yen's distance rows) comes from the one
// distance loop. Marks are stamps, not booleans: each search draws a
// fresh stamp, and a node is visited (a link banned) in that search
// exactly when its entry equals the stamp, so starting a search costs
// O(1) rather than clearing O(n) arrays.
//
// Stamps only increase. fit regrows both mark arrays together, zeroed
// and so below every stamp still to be drawn, and next clears both
// together when the counter wraps — a mark left by an earlier search,
// on this graph or another, can never read as live. A distance row is
// plain data, written whole by distances, and never read through a
// stamp.
//
// A scratch belongs to one goroutine while it is out of scratchPool;
// concurrent searches (KShortestPairs' workers, BFSDistancesBanned
// callers) each take their own.
type scratch struct {
	stamp uint32
	visit []uint32 // node -> stamp of the search that reached it or banned it as a root node
	ban   []uint32 // link -> stamp of the search that bans it
	prev  []int    // node -> link that discovered it; meaningful where visit is current
	queue []int    // BFS queue; capacity covers every node, so it never grows
	bans  []int    // a BFSDistancesBanned call's in-range banned link IDs, ascending

	// Yen state, reset by each call.
	arena    []int  // node sequence then link sequence of every stored path, back to back
	paths    []span // stored paths: the first path, then each distinct candidate in discovery order
	cands    []int  // indexes into paths of the pool, in reverse acceptance order: the next to accept is last
	accepted []int  // indexes into paths of the accepted paths, in order

	// Per-call counts, which KShortestPairs adds to its counters.
	spurs, skipped, pruned int
}

// span locates one stored path in the arena — hops+1 nodes at off,
// followed by its hops links — with the hash of its node sequence.
type span struct {
	off, hops int
	hash      uint64
}

// scratchPool holds idle scratch; each BFSDistancesBanned call, and each
// task of a KShortestPairs batch, takes one for its duration.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// fit sizes the per-node and per-link arrays for g, reallocating all of
// them together when either mark array is too small.
func (s *scratch) fit(g *Graph) {
	if len(s.visit) >= g.n && len(s.ban) >= len(g.links) {
		return
	}
	n, m := max(g.n, len(s.visit)), max(len(g.links), len(s.ban))
	s.visit = make([]uint32, n)
	s.ban = make([]uint32, m)
	s.prev = make([]int, n)
	s.queue = make([]int, 0, n)
}

// next draws the stamp for one search.
func (s *scratch) next() uint32 {
	if s.stamp == math.MaxUint32 {
		clear(s.visit)
		clear(s.ban)
		s.stamp = 0
	}
	s.stamp++
	return s.stamp
}

// search is breadth-first search from src toward dst under stamp st. It
// skips links whose ban entry equals st and nodes whose visit entry
// equals st — the caller stamps the banned links and the banned root
// nodes before calling. Neighbours are expanded in adjacency insertion
// order and the search stops at the first discovery of dst, so ties
// break by link insertion order; prev then holds the discovered path,
// read back by store. It reports whether dst was reached (src == dst
// trivially is).
//
// With a distance row (row[v] is v's hop distance to dst over the
// caller's unbanned links, -1 when dst is unreachable), the search does
// not enqueue a node v first reached at depth t when t + row[v] >=
// limit or row[v] < 0: no path through v reaches dst in fewer than limit
// hops. Yen passes limit = H − i for a spur at root position i (the
// bound in kshortest.go); math.MaxInt keeps only the reachability test.
// The limited search returns the same path whenever the full search's
// path is shorter than limit: breadth-first search returns the shortest
// path that is least in adjacency order, removing nodes off that path
// keeps it least, and each of its nodes, at depth t, has t + row <= its
// length, so none is removed. Every node it does enqueue has row >= 1
// and so t <= limit − 2, and dst, found one step further, is within the
// limit. A nil row limits nothing.
//
// Unless dst itself has degree 1, the search walks the core adjacency,
// which leaves out the links to degree-1 nodes, instead of the full one.
// That changes nothing it finds. A degree-1 node other than dst is never
// interior to a loopless path: once discovered and dequeued, its only
// link leads back to its discoverer, so it discovers nothing. Never
// discovering it therefore leaves every other discovery, every prev
// entry and every relative queue position as they were. In a realized
// topology the degree-1 nodes are the servers — 128 of mini-1's 176
// nodes — which a switch-to-switch search would otherwise enqueue,
// dequeue and scan for nothing.
//
//flatvet:hotpath runs once per Yen spur, thousands of times per route-table build or repair
func (s *scratch) search(g *Graph, src, dst int, st uint32, row []int, limit int) bool {
	visit, ban, prev := s.visit, s.ban, s.prev
	visit[src] = st
	if src == dst {
		return true
	}
	adj := g.adj
	if len(adj[dst]) >= 2 {
		adj = g.coreAdj()
	}
	q := append(s.queue[:0], src)
	// q[:end] holds the nodes up to depth, so each node dequeued at or
	// after end is one level deeper.
	for head, depth, end := 0, 0, 1; head < len(q); head++ {
		if head == end {
			depth, end = depth+1, len(q)
		}
		u := q[head]
		for _, id := range adj[u] {
			if ban[id] == st {
				continue
			}
			v := g.links[id].A
			if v == u {
				v = g.links[id].B
			}
			if visit[v] == st {
				continue
			}
			visit[v] = st
			prev[v] = id
			if v == dst {
				return true
			}
			if row != nil && (row[v] < 0 || depth+1+row[v] >= limit) {
				s.pruned++
				continue
			}
			q = append(q, v)
		}
	}
	return false
}

// distances writes the hop distance from src over the links not in bans
// (ascending in-range IDs) to every node into dist, -1 where src is
// unreachable: BFSDistancesBanned's loop and the source of Yen's
// distance rows (the graph is undirected, so the distances from dst are
// the distances to it). A degree-1 neighbour gets its distance but is
// never expanded — its only link leads back to the node that reached it
// — while a degree-1 src is expanded like any other.
func (s *scratch) distances(g *Graph, src int, bans []int, dist []int) {
	st := s.stampBans(bans)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	q := append(s.queue[:0], src)
	for head := 0; head < len(q); head++ {
		u := q[head]
		for _, id := range g.adj[u] {
			if s.ban[id] == st {
				continue
			}
			v := g.links[id].A
			if v == u {
				v = g.links[id].B
			}
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				if len(g.adj[v]) > 1 {
					q = append(q, v)
				}
			}
		}
	}
}

// store writes the path just found by search into the arena: the first
// i nodes and links of root, then the search's path from the spur node
// from to dst. When the node sequence was stored before, store rolls the
// arena back and reports false; otherwise the path becomes the last
// entry of paths.
func (s *scratch) store(g *Graph, root span, i, from, dst int) bool {
	hops := i
	for at := dst; at != from; hops++ {
		at = g.links[s.prev[at]].Other(at)
	}
	off := len(s.arena)
	s.arena = slices.Grow(s.arena, 2*hops+1)[:off+2*hops+1]
	nodes := s.arena[off : off+hops+1]
	links := s.arena[off+hops+1:]
	copy(nodes, s.arena[root.off:root.off+i])
	copy(links, s.arena[root.off+root.hops+1:][:i])
	nodes[i] = from
	for at, j := dst, hops; j > i; j-- {
		id := s.prev[at]
		nodes[j], links[j-1] = at, id
		at = g.links[id].Other(at)
	}

	h := hashNodes(nodes)
	for _, p := range s.paths {
		if p.hash == h && equalNodes(s.arena[p.off:p.off+p.hops+1], nodes) {
			s.arena = s.arena[:off]
			return false
		}
	}
	s.paths = append(s.paths, span{off: off, hops: hops, hash: h})
	return true
}

// hashNodes is FNV-1a over a node sequence, one step per node. store
// compares full sequences on a match, so collisions cost time only.
func hashNodes(nodes []int) uint64 {
	h := uint64(14695981039346656037)
	for _, n := range nodes {
		h = (h ^ uint64(n)) * 1099511628211
	}
	return h
}

// export copies the accepted paths out of the arena into one exact-size
// backing array owned by the caller. A zero-hop path has nil Links.
func (s *scratch) export() []Path {
	total := 0
	for _, a := range s.accepted {
		total += 2*s.paths[a].hops + 1
	}
	buf := make([]int, total)
	out := make([]Path, len(s.accepted))
	for j, a := range s.accepted {
		p := s.paths[a]
		n := copy(buf, s.arena[p.off:p.off+2*p.hops+1])
		out[j].Nodes = buf[: p.hops+1 : p.hops+1]
		if p.hops > 0 {
			out[j].Links = buf[p.hops+1 : n : n]
		}
		buf = buf[n:]
	}
	return out
}
