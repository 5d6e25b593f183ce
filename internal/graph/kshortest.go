package graph

import (
	"sort"

	"flattree/internal/parallel"
	"flattree/internal/telemetry"
)

// KShortestPaths returns up to k loopless minimum-hop paths from src to dst
// using Yen's algorithm (Yen 1971), the algorithm the paper adopts for
// k-shortest-path routing. Paths are ordered by increasing hop count; ties
// are broken by deterministic BFS order so results are reproducible.
func (g *Graph) KShortestPaths(src, dst, k int) []Path {
	return g.KShortestPathsBanned(src, dst, k, nil)
}

// KShortestPathsBanned is KShortestPaths on the subgraph that excludes the
// banned links — the entry point incremental route repair uses to re-route
// around masked (failed) links without rebuilding a pruned graph. Only
// true entries ban a link, and IDs outside the graph are ignored. The
// banned set is only read, so concurrent calls may share it; nil means no
// links are banned. Determinism matches KShortestPaths: for any banned
// set, the same graph yields the same paths in the same order.
//
// Every search runs the pooled stamped BFS (scratch.search); the returned
// paths share one backing array allocated for the caller.
func (g *Graph) KShortestPathsBanned(src, dst, k int, banned map[int]bool) []Path {
	if k <= 0 {
		return nil
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	return s.yen(g, src, dst, k, banned)
}

// yen is KShortestPathsBanned on this scratch.
func (s *scratch) yen(g *Graph, src, dst, k int, banned map[int]bool) []Path {
	s.fit(g)
	s.reset(g, banned)
	if !s.search(g, src, dst, s.stampBans()) {
		return nil
	}
	s.store(g, span{}, 0, src, dst)
	s.accepted = append(s.accepted, 0)

	for len(s.accepted) < k {
		prev := s.paths[s.accepted[len(s.accepted)-1]]
		// Spur from every node of the previous path except the last.
		for i := 0; i < prev.hops; i++ {
			st := s.stampBans()
			root := s.arena[prev.off : prev.off+i+1]
			// Ban the next link of every accepted path sharing this root.
			for _, a := range s.accepted {
				p := s.paths[a]
				if p.hops > i && equalNodes(s.arena[p.off:p.off+i+1], root) {
					s.ban[s.arena[p.off+p.hops+1+i]] = st
				}
			}
			for _, n := range root[:i] {
				s.visit[n] = st
			}
			if s.search(g, root[i], dst, st) && s.store(g, prev, i, root[i], dst) {
				s.cands = append(s.cands, len(s.paths)-1)
			}
		}
		if len(s.cands) == 0 {
			break
		}
		best := 0
		for j := 1; j < len(s.cands); j++ {
			if s.before(s.cands[j], s.cands[best]) {
				best = j
			}
		}
		s.accepted = append(s.accepted, s.cands[best])
		s.cands[best] = s.cands[len(s.cands)-1]
		s.cands = s.cands[:len(s.cands)-1]
	}
	return s.export()
}

// before orders candidates as Yen accepts them: fewer hops first, then
// earlier discovery (paths holds candidates in discovery order).
func (s *scratch) before(a, b int) bool {
	if ha, hb := s.paths[a].hops, s.paths[b].hops; ha != hb {
		return ha < hb
	}
	return a < b
}

// reset clears the Yen state and records the in-range link IDs banned
// maps to true, sorted so nothing downstream sees map order.
func (s *scratch) reset(g *Graph, banned map[int]bool) {
	ids := s.bans[:0]
	for id := range banned {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	n := 0
	for _, id := range ids {
		if banned[id] && id >= 0 && id < len(g.links) {
			ids[n] = id
			n++
		}
	}
	s.bans = ids[:n]
	s.arena, s.paths = s.arena[:0], s.paths[:0]
	s.cands, s.accepted = s.cands[:0], s.accepted[:0]
}

// stampBans draws the stamp for the next search and bans the caller's
// links under it.
func (s *scratch) stampBans() uint32 {
	st := s.next()
	for _, id := range s.bans {
		s.ban[id] = st
	}
	return st
}

// PairKey identifies an ordered (src, dst) node pair in path tables.
type PairKey struct{ Src, Dst int }

// KShortestAllPairs computes k-shortest paths for every ordered pair in
// pairs on the shared bounded worker pool (at most parallel.DefaultWorkers
// goroutines, whatever the pair count). The result holds each pair's path
// list at the pair's index in pairs. Pair computations are independent,
// mirroring the paper's note that k-shortest-path routing parallelizes
// trivially (§4.3); each task takes its own search scratch from the pool,
// and results are collected by index, so the table is identical for any
// worker count.
func (g *Graph) KShortestAllPairs(pairs []PairKey, k int) [][]Path {
	results, _ := parallel.Map(parallel.Default(), len(pairs), func(i int) ([]Path, error) {
		return g.KShortestPaths(pairs[i].Src, pairs[i].Dst, k), nil
	})
	var nPaths int64
	for _, paths := range results {
		nPaths += int64(len(paths))
	}
	telemetry.C("graph_yen_pairs_total").Add(int64(len(pairs)))
	telemetry.C("graph_yen_paths_total").Add(nPaths)
	return results
}
