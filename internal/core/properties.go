package core

import "flattree/internal/topo"

// CoreLinkCensus counts, for one core switch, its attached servers and its
// links toward edge and aggregation switches. Properties 1 and 2 of §3.2
// state that in global mode both wiring patterns spread these uniformly
// across the core switches.
type CoreLinkCensus struct {
	Servers int
	ToEdge  int
	ToAgg   int
}

// CensusCores tallies per-core link types of a realization.
func CensusCores(r *Realization) []CoreLinkCensus {
	t := r.Topo
	out := make([]CoreLinkCensus, len(r.CoreID))
	idx := make(map[int]int, len(r.CoreID))
	for i, id := range r.CoreID {
		idx[id] = i
	}
	for _, l := range t.G.Links() {
		for _, pair := range [2][2]int{{l.A, l.B}, {l.B, l.A}} {
			ci, ok := idx[pair[0]]
			if !ok {
				continue
			}
			switch t.Nodes[pair[1]].Kind {
			case topo.Server:
				out[ci].Servers++
			case topo.Edge:
				out[ci].ToEdge++
			case topo.Agg:
				out[ci].ToAgg++
			}
		}
	}
	return out
}

// CensusSpread returns, per field, the max-min spread of a census over
// the core switches: 0 is perfectly uniform, and an empty census spreads
// by 0. Property 1 bounds the Servers spread and Property 2 the ToEdge
// and ToAgg spreads.
func CensusSpread(census []CoreLinkCensus) CoreLinkCensus {
	if len(census) == 0 {
		return CoreLinkCensus{}
	}
	lo, hi := census[0], census[0]
	for _, c := range census[1:] {
		lo.Servers, hi.Servers = min(lo.Servers, c.Servers), max(hi.Servers, c.Servers)
		lo.ToEdge, hi.ToEdge = min(lo.ToEdge, c.ToEdge), max(hi.ToEdge, c.ToEdge)
		lo.ToAgg, hi.ToAgg = min(lo.ToAgg, c.ToAgg), max(hi.ToAgg, c.ToAgg)
	}
	return CoreLinkCensus{Servers: hi.Servers - lo.Servers, ToEdge: hi.ToEdge - lo.ToEdge, ToAgg: hi.ToAgg - lo.ToAgg}
}
