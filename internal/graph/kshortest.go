package graph

import (
	"math"
	"sort"
	"sync/atomic"

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
// paths share one backing array allocated for the caller. The call
// computes dst's distance row in the pooled scratch; a batch of pairs
// shares one row per destination through KShortestPairs instead.
func (g *Graph) KShortestPathsBanned(src, dst, k int, banned map[int]bool) []Path {
	if k <= 0 {
		return nil
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	return s.yen(g, src, dst, k, banned)
}

// yen is KShortestPathsBanned on this scratch: it sorts the ban set into
// the scratch and, when spurs can run (k > 1), computes dst's distance
// row there for this call alone.
func (s *scratch) yen(g *Graph, src, dst, k int, banned map[int]bool) []Path {
	s.fit(g)
	s.bans = sortedBans(s.bans, g, banned)
	var row []int
	if k > 1 {
		row = s.row[:g.n]
		s.distances(g, dst, s.bans, row)
	}
	return s.kshortest(g, src, dst, k, s.bans, row)
}

// kshortest is bounded Yen on this scratch, with the caller's bans
// (ascending in-range link IDs) and dst's distance row over them (row[v]
// the hop distance from v to dst, -1 when dst is unreachable; nil is
// allowed only for k = 1). It skips every spur search whose result could
// never be accepted and limits the depth of the others, and returns
// exactly what unbounded Yen returns. The three rules:
//
// Pool bound H. Let need = k − |accepted|. Once the pool holds at least
// need candidates, H is the hop count of the need-th in acceptance
// order (fewer hops, then earlier discovery). A candidate stored from
// now on has a later discovery than every stored one, so with H hops or
// more it sorts after those need; they leave the pool only by
// acceptance, and the run stops after need more acceptances, so it is
// never accepted. H never rises: an acceptance takes the first of the
// need and lowers need by one, and a new candidate can only move the
// need-th forward. Storing a candidate of H hops or more, or not,
// changes only entries that are never accepted: it sorts after the
// need-th, so H stays, and deduplication drops only a path with the
// same node sequence, hence the same hop count.
//
// Spur skip. A spur from root[i] yields a path of at least
// i + row[root[i]] hops, because the spur bans and the root-node bans
// only remove links and nodes from the graph row was computed on. The
// spur is skipped when that reaches H. (dst is always reachable from
// root[i]: the previous path reaches it over unbanned links.)
//
// Depth limit. A spur that runs searches with limit H − i: it does not
// enqueue a node v first reached at depth t when i + t + row[v] >= H.
// The returned path is the same whenever it is shorter than H (see
// search), and when it is not, whatever the limited search returns is
// no shorter — a search on a subgraph — so by the pool bound it is
// never accepted either way.
//
// Not used, because nothing here establishes it: "later candidates are
// no shorter than the last accepted path". Spur bans act per link while
// deduplication acts per node sequence, so with parallel twins a later
// candidate can be shorter.
func (s *scratch) kshortest(g *Graph, src, dst, k int, bans, row []int) []Path {
	s.arena, s.paths = s.arena[:0], s.paths[:0]
	s.cands, s.accepted = s.cands[:0], s.accepted[:0]
	s.spurs, s.skipped, s.pruned = 0, 0, 0
	if k <= 0 || !s.search(g, src, dst, s.stampBans(bans), row, math.MaxInt) {
		return nil
	}
	s.store(g, span{}, 0, src, dst)
	s.accepted = append(s.accepted, 0)

	for len(s.accepted) < k {
		prev := s.paths[s.accepted[len(s.accepted)-1]]
		h := s.bound(k)
		// Spur from every node of the previous path except the last.
		for i := 0; i < prev.hops; i++ {
			spur := s.arena[prev.off+i]
			if i+row[spur] >= h {
				s.skipped++
				continue
			}
			st := s.stampBans(bans)
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
			s.spurs++
			if s.search(g, spur, dst, st, row, h-i) && s.store(g, prev, i, spur, dst) {
				s.push(len(s.paths) - 1)
				h = s.bound(k)
			}
		}
		if len(s.cands) == 0 {
			break
		}
		s.accepted = append(s.accepted, s.cands[len(s.cands)-1])
		s.cands = s.cands[:len(s.cands)-1]
	}
	return s.export()
}

// bound returns the pool bound H for a run to k paths: the hop count of
// the need-th candidate in acceptance order, or math.MaxInt while the
// pool holds fewer than need.
func (s *scratch) bound(k int) int {
	need := k - len(s.accepted)
	if len(s.cands) < need {
		return math.MaxInt
	}
	return s.paths[s.cands[len(s.cands)-need]].hops
}

// push adds candidate c to the pool, keeping it in reverse acceptance
// order: every candidate accepted before c moves one place toward the
// end.
func (s *scratch) push(c int) {
	j := len(s.cands)
	s.cands = append(s.cands, c)
	for ; j > 0 && s.before(s.cands[j-1], c); j-- {
		s.cands[j] = s.cands[j-1]
	}
	s.cands[j] = c
}

// before orders candidates as Yen accepts them: fewer hops first, then
// earlier discovery (paths holds candidates in discovery order).
func (s *scratch) before(a, b int) bool {
	if ha, hb := s.paths[a].hops, s.paths[b].hops; ha != hb {
		return ha < hb
	}
	return a < b
}

// sortedBans returns, in buf's storage, the in-range link IDs banned
// maps to true, sorted so nothing downstream sees map order.
func sortedBans(buf []int, g *Graph, banned map[int]bool) []int {
	ids := buf[:0]
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
	return ids[:n]
}

// stampBans draws the stamp for the next search and bans the given
// links under it.
func (s *scratch) stampBans(bans []int) uint32 {
	st := s.next()
	for _, id := range bans {
		s.ban[id] = st
	}
	return st
}

// PairKey identifies an ordered (src, dst) node pair in path tables.
type PairKey struct{ Src, Dst int }

// KShortestAllPairs is KShortestPairs with no links banned: the healthy
// route table's computation.
func (g *Graph) KShortestAllPairs(pairs []PairKey, k int) [][]Path {
	return g.KShortestPairs(pairs, k, nil)
}

// KShortestPairs computes KShortestPathsBanned for every ordered pair in
// pairs, all on one banned set, on the shared bounded worker pool (at
// most parallel.DefaultWorkers goroutines, whatever the pair count). The
// result holds each pair's path list at the pair's index in pairs. It
// sorts the banned set once and computes one distance row per distinct
// destination (a reverse BFS over the unbanned links, one pool task
// each), which every pair toward that destination shares. Pair
// computations are then independent, mirroring the paper's note that
// k-shortest-path routing parallelizes trivially (§4.3); each task
// takes its own search scratch from the pool, and results are collected
// by index, so the table is identical for any worker count.
//
// Once per batch it adds the pairs, the paths, the spur searches run
// and skipped, and the nodes the depth limit kept out of a search to
// the graph_yen_* counters.
func (g *Graph) KShortestPairs(pairs []PairKey, k int, banned map[int]bool) [][]Path {
	bans := sortedBans(nil, g, banned)
	// at[v] is 1 + the index of v's row in rows, 0 while v is no pair's
	// destination.
	at := make([]int32, g.n)
	dsts := make([]int, 0, min(len(pairs), g.n))
	for _, pk := range pairs {
		if at[pk.Dst] == 0 {
			dsts = append(dsts, pk.Dst)
			at[pk.Dst] = int32(len(dsts))
		}
	}
	rows := make([]int, len(dsts)*g.n)
	rowOf := func(dst int) []int {
		j := int(at[dst]-1) * g.n
		return rows[j : j+g.n : j+g.n]
	}
	pool := parallel.Default()
	pool.ForEach(len(dsts), func(j int) {
		s := scratchPool.Get().(*scratch)
		defer scratchPool.Put(s)
		s.fit(g)
		s.distances(g, dsts[j], bans, rowOf(dsts[j]))
	})
	var spurs, skipped, pruned atomic.Int64
	results, _ := parallel.Map(pool, len(pairs), func(i int) ([]Path, error) {
		s := scratchPool.Get().(*scratch)
		defer scratchPool.Put(s)
		s.fit(g)
		pk := pairs[i]
		paths := s.kshortest(g, pk.Src, pk.Dst, k, bans, rowOf(pk.Dst))
		spurs.Add(int64(s.spurs))
		skipped.Add(int64(s.skipped))
		pruned.Add(int64(s.pruned))
		return paths, nil
	})
	var nPaths int64
	for _, paths := range results {
		nPaths += int64(len(paths))
	}
	telemetry.C("graph_yen_pairs_total").Add(int64(len(pairs)))
	telemetry.C("graph_yen_paths_total").Add(nPaths)
	telemetry.C("graph_yen_spurs_total").Add(spurs.Load())
	telemetry.C("graph_yen_spurs_skipped_total").Add(skipped.Load())
	telemetry.C("graph_yen_pruned_nodes_total").Add(pruned.Load())
	return results
}
