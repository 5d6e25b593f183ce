package graph

// RefKShortestPathsBanned exposes the reference Yen (yen_ref_test.go) to
// the external tests in pairs_test.go, which realize flat-tree
// topologies through internal/core and so cannot live in package graph.
func (g *Graph) RefKShortestPathsBanned(src, dst, k int, banned map[int]bool) []Path {
	return g.refKShortestPathsBanned(src, dst, k, banned)
}

// RaceEnabled reports a -race build, where the external tests check a
// sample of their pairs against the slow reference.
const RaceEnabled = raceEnabled
