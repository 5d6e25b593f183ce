package experiments

import (
	"flattree/internal/core"
	"flattree/internal/flowsim"
	"flattree/internal/metrics"
	"flattree/internal/routing"
	"flattree/internal/topo"
	"flattree/internal/traffic"
)

// The ablations quantify the design choices §3 calls out: pod-core wiring
// pattern 1 vs 2 (§3.2), the (m, n) server-distribution profile (§3.4),
// ring vs linear inter-pod side wiring (§3.3), and the sensitivity of
// MPTCP throughput to k (§5.1).

// AblationWiringRow compares the two pod-core wiring patterns on one base
// topology in global mode.
type AblationWiringRow struct {
	Topology string
	Pattern  core.Pattern
	// APL is the average switch-level path length between ingress
	// switches.
	APL float64
	// PermutationThroughput is the mean MPTCP(8) flow throughput under
	// permutation traffic.
	PermutationThroughput float64
}

// AblationWiring measures both wiring patterns on the base topologies.
func (c Config) AblationWiring() ([]AblationWiringRow, error) {
	var rows []AblationWiringRow
	for _, p := range c.baseParams() {
		for _, pat := range []core.Pattern{core.Pattern1, core.Pattern2} {
			// One (n, m) feasible under BOTH patterns keeps the
			// comparison fair.
			opt, err := flatTreeOptionsFor(p, pat, core.Pattern1, core.Pattern2)
			if err != nil {
				return nil, err
			}
			opt.Pattern = pat
			nw, err := core.New(p, opt)
			if err != nil {
				return nil, err
			}
			nw.SetMode(core.ModeGlobal)
			r := nw.Realize()
			table := routing.BuildKShortest(r.Topo, 8)
			pairs := traffic.Permutation(p.TotalServers(), c.Seed)
			flows, err := c.methodThroughputs(r.Topo, table, pairs, MPTCP8)
			if err != nil {
				return nil, err
			}
			rows = append(rows, AblationWiringRow{
				Topology: p.Name, Pattern: pat,
				APL:                   table.AveragePathLength(),
				PermutationThroughput: metrics.Mean(flows),
			})
		}
	}
	return rows, nil
}

// RenderAblationWiring formats the wiring comparison.
func RenderAblationWiring(rows []AblationWiringRow) string {
	t := &metrics.Table{Header: []string{"topology", "pattern", "APL (switch hops)", "permutation MPTCP8 avg (Gbps)"}}
	for _, r := range rows {
		t.Add(r.Topology, int(r.Pattern), r.APL, r.PermutationThroughput)
	}
	return t.String()
}

// AblationProfileRow is one (n, m) candidate of the §3.4 profiling sweep.
type AblationProfileRow struct {
	N, M int
	APL  float64
	Best bool
}

// AblationProfile sweeps (n, m) for the reduced topo-1 shape and reports
// the average path length of each candidate.
func (c Config) AblationProfile() ([]AblationProfileRow, error) {
	name := "mini-1"
	if c.Full {
		name = "topo-1"
	}
	p, err := c.paramsByName(name)
	if err != nil {
		return nil, err
	}
	stride := 1
	if c.Full {
		stride = 16 // sample servers to bound BFS cost at 4096 servers
	}
	best, all, err := core.ProfileMN(p, core.Pattern1, stride)
	if err != nil {
		return nil, err
	}
	var rows []AblationProfileRow
	for _, cand := range all {
		rows = append(rows, AblationProfileRow{
			N: cand.N, M: cand.M, APL: cand.AvgPathLength,
			Best: cand.N == best.N && cand.M == best.M,
		})
	}
	return rows, nil
}

// RenderAblationProfile formats the profiling sweep.
func RenderAblationProfile(rows []AblationProfileRow) string {
	t := &metrics.Table{Header: []string{"n (4-port)", "m (6-port)", "server-pair APL", "best"}}
	for _, r := range rows {
		mark := ""
		if r.Best {
			mark = "<== chosen"
		}
		t.Add(r.N, r.M, r.APL, mark)
	}
	return t.String()
}

// AblationSideWiringRow compares ring vs linear inter-pod side wiring.
type AblationSideWiringRow struct {
	Topology string
	Linear   bool
	APL      float64
	// SideLinks counts realized inter-pod side links in global mode.
	SideLinks int
}

// AblationSideWiring measures the effect of closing the pod ring (§3.3).
// Ring wiring maximizes inter-pod side links; linear wiring degrades the
// outermost 6-port converters to the local configuration, trading side
// connectivity for direct edge-core links — the experiment quantifies the
// trade.
func (c Config) AblationSideWiring() ([]AblationSideWiringRow, error) {
	name := "mini-1"
	if c.Full {
		name = "topo-1"
	}
	p, err := c.paramsByName(name)
	if err != nil {
		return nil, err
	}
	var rows []AblationSideWiringRow
	for _, linear := range []bool{false, true} {
		opt := flatTreeOptions(p)
		opt.LinearPods = linear
		nw, err := core.New(p, opt)
		if err != nil {
			return nil, err
		}
		nw.SetMode(core.ModeGlobal)
		r := nw.Realize()
		table := routing.BuildKShortest(r.Topo, 4)
		side := 0
		for _, l := range r.Topo.G.Links() {
			na, nb := r.Topo.Nodes[l.A], r.Topo.Nodes[l.B]
			if na.Kind != topo.Server && nb.Kind != topo.Server && na.Pod >= 0 && nb.Pod >= 0 && na.Pod != nb.Pod {
				side++
			}
		}
		rows = append(rows, AblationSideWiringRow{
			Topology: p.Name, Linear: linear,
			APL: table.AveragePathLength(), SideLinks: side,
		})
	}
	return rows, nil
}

// RenderAblationSideWiring formats the side-wiring comparison.
func RenderAblationSideWiring(rows []AblationSideWiringRow) string {
	t := &metrics.Table{Header: []string{"topology", "inter-pod wiring", "APL", "side links"}}
	for _, r := range rows {
		w := "ring"
		if r.Linear {
			w = "linear"
		}
		t.Add(r.Topology, w, r.APL, r.SideLinks)
	}
	return t.String()
}

// AblationKRow is the MPTCP throughput at one path count (§5.1's k
// sensitivity: beyond 8 paths more k does not help).
type AblationKRow struct {
	K          int
	Throughput float64
}

// AblationK sweeps k for permutation traffic on the reduced topo-1 global.
func (c Config) AblationK() ([]AblationKRow, error) {
	name := "mini-1"
	if c.Full {
		name = "topo-1"
	}
	nw, err := c.Network(name)
	if err != nil {
		return nil, err
	}
	nw.SetMode(core.ModeGlobal)
	r := nw.Realize()
	cp := nw.Clos()
	ks := []int{1, 2, 4, 8, 12, 16}
	table := routing.BuildKShortest(r.Topo, ks[len(ks)-1])
	pairs := traffic.Permutation(cp.TotalServers(), c.Seed)
	var rows []AblationKRow
	for _, k := range ks {
		specs := mptcpSpecs(r.Topo, table.WithK(k), pairs)
		rates, err := flowsimStatic(r, specs)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationKRow{K: k, Throughput: metrics.Mean(rates)})
	}
	return rows, nil
}

// RenderAblationK formats the k sweep.
func RenderAblationK(rows []AblationKRow) string {
	t := &metrics.Table{Header: []string{"k (concurrent paths)", "permutation avg throughput (Gbps)"}}
	for _, r := range rows {
		t.Add(r.K, r.Throughput)
	}
	return t.String()
}

func flowsimStatic(r *core.Realization, specs []flowsim.ConnSpec) ([]float64, error) {
	return flowsim.StaticRates(routing.DirectedCaps(r.Topo.G), specs, topo.DefaultLinkCapacity)
}
