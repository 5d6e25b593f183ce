package graph

import (
	"container/heap"
	"maps"
)

// The reference Yen: a direct map-based rendering of the algorithm that
// the pooled stamped kernel (search.go) must reproduce exactly. The
// differential tests in yen_diff_test.go require the kernel to return
// its paths, link IDs included.

// refKShortestPathsBanned is the reference for KShortestPathsBanned:
// every spur copies the banned set into a fresh map, builds a
// banned-node map and runs an allocating BFS.
func (g *Graph) refKShortestPathsBanned(src, dst, k int, banned map[int]bool) []Path {
	if k <= 0 {
		return nil
	}
	first, ok := g.refShortestPathFiltered(src, dst, banned, nil)
	if !ok {
		return nil
	}
	paths := []Path{first}
	// Candidate heap of deviation paths, ordered by length then by
	// discovery sequence for determinism.
	cands := &pathHeap{}
	seen := map[string]bool{pathKey(first.Nodes): true}
	seq := 0

	for len(paths) < k {
		prev := paths[len(paths)-1]
		// Spur from every node of the previous path except the last.
		for i := 0; i < len(prev.Nodes)-1; i++ {
			spurNode := prev.Nodes[i]
			rootNodes := prev.Nodes[:i+1]

			bannedLinks := make(map[int]bool, len(banned)+2)
			maps.Copy(bannedLinks, banned)
			for _, p := range paths {
				if len(p.Nodes) > i && equalNodes(p.Nodes[:i+1], rootNodes) && len(p.Links) > i {
					bannedLinks[p.Links[i]] = true
				}
			}
			bannedNodes := make(map[int]bool, i)
			for _, n := range rootNodes[:i] {
				bannedNodes[n] = true
			}

			spur, ok := g.refShortestPathFiltered(spurNode, dst, bannedLinks, bannedNodes)
			if !ok {
				continue
			}
			total := Path{
				Nodes: append(append([]int(nil), rootNodes...), spur.Nodes[1:]...),
				Links: append(append([]int(nil), prev.Links[:i]...), spur.Links...),
			}
			key := pathKey(total.Nodes)
			if seen[key] {
				continue
			}
			seen[key] = true
			heap.Push(cands, candPath{path: total, seq: seq})
			seq++
		}
		if cands.Len() == 0 {
			break
		}
		next := heap.Pop(cands).(candPath)
		paths = append(paths, next.path)
	}
	return paths
}

func pathKey(nodes []int) string {
	// Compact byte encoding; node IDs fit in 4 bytes each.
	b := make([]byte, 0, len(nodes)*4)
	for _, n := range nodes {
		b = append(b, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	}
	return string(b)
}

type candPath struct {
	path Path
	seq  int
}

type pathHeap []candPath

func (h pathHeap) Len() int { return len(h) }
func (h pathHeap) Less(i, j int) bool {
	if h[i].path.Len() != h[j].path.Len() {
		return h[i].path.Len() < h[j].path.Len()
	}
	return h[i].seq < h[j].seq
}
func (h pathHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *pathHeap) Push(x interface{}) { *h = append(*h, x.(candPath)) }
func (h *pathHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// refShortestPathFiltered is BFS that ignores banned links and banned nodes
// (both optional). src itself is never banned.
func (g *Graph) refShortestPathFiltered(src, dst int, bannedLinks map[int]bool, bannedNodes map[int]bool) (Path, bool) {
	if src == dst {
		return Path{Nodes: []int{src}}, true
	}
	prevLink := make([]int, g.n)
	for i := range prevLink {
		prevLink[i] = -1
	}
	visited := make([]bool, g.n)
	visited[src] = true
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, id := range g.adj[u] {
			if bannedLinks[id] {
				continue
			}
			v := g.links[id].Other(u)
			if visited[v] || bannedNodes[v] {
				continue
			}
			visited[v] = true
			prevLink[v] = id
			if v == dst {
				return g.refTracePath(src, dst, prevLink), true
			}
			queue = append(queue, v)
		}
	}
	return Path{}, false
}

func (g *Graph) refTracePath(src, dst int, prevLink []int) Path {
	var nodes, links []int
	for at := dst; at != src; {
		id := prevLink[at]
		links = append(links, id)
		nodes = append(nodes, at)
		at = g.links[id].Other(at)
	}
	nodes = append(nodes, src)
	reverseInts(nodes)
	reverseInts(links)
	return Path{Nodes: nodes, Links: links}
}

func reverseInts(s []int) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}
