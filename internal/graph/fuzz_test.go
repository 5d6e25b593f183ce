package graph

import "testing"

// decodeYenCase reads a small Yen instance from fuzz input. The header
// gives the node count (2 to 15), k (1 to 10) and the source and
// destination (taken modulo the final node count, so either may be a
// pendant leaf); each following three-byte operation adds a link
// (parallel links allowed), hangs a pendant leaf on a node (pendants
// included, so leaves also end chains) or sets a ban entry, true or
// false, for an ID from -2 to two past the last link. ok is false when
// the input is too short for a header.
func decodeYenCase(data []byte) (g *Graph, src, dst, k int, banned map[int]bool, ok bool) {
	if len(data) < 4 {
		return nil, 0, 0, 0, nil, false
	}
	g = New(2 + int(data[0])%14)
	k = 1 + int(data[1])%10
	for ops := data[4:]; len(ops) >= 3 && g.NumLinks() < 64; ops = ops[3:] {
		x, y := int(ops[1]), int(ops[2])
		switch ops[0] % 3 {
		case 0:
			if a, b := x%g.NumNodes(), y%g.NumNodes(); a != b {
				g.AddLink(a, b, 1)
			}
		case 1:
			v := g.AddNode()
			g.AddLink(v, x%v, 1)
		default:
			if banned == nil {
				banned = map[int]bool{}
			}
			banned[x%(g.NumLinks()+4)-2] = y%2 == 0
		}
	}
	return g, int(data[2]) % g.NumNodes(), int(data[3]) % g.NumNodes(), k, banned, true
}

// FuzzKShortestPaths requires the bounded Yen to return exactly the
// reference Yen's paths on small decoded multigraphs: parallel links,
// pendant leaves as endpoints and on chains, ban sets with false and
// out-of-range entries, and k from 1 to 10. The committed corpus in
// testdata/fuzz/FuzzKShortestPaths holds one seed per feature.
func FuzzKShortestPaths(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g, src, dst, k, banned, ok := decodeYenCase(data)
		if !ok {
			return
		}
		if err := checkAgainstReference(g, src, dst, k, banned); err != nil {
			t.Fatal(err)
		}
	})
}
