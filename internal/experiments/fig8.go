package experiments

import (
	"context"
	"fmt"
	"math"

	"flattree/internal/core"
	"flattree/internal/flowsim"
	"flattree/internal/metrics"
	"flattree/internal/parallel"
	"flattree/internal/routing"
	"flattree/internal/topo"
	"flattree/internal/traffic"
)

// Fig8Network names one of the six networks compared in Figure 8.
type Fig8Network int

const (
	// FTGlobal is flat-tree in global mode (k-shortest paths + MPTCP).
	FTGlobal Fig8Network = iota
	// FTLocal is flat-tree in local mode.
	FTLocal
	// FTClosKSP is flat-tree Clos mode with k-shortest paths + MPTCP.
	FTClosKSP
	// FTClosECMP is flat-tree Clos mode with conventional ECMP + TCP.
	FTClosECMP
	// RandomGraph is the static random graph baseline.
	RandomGraph
	// TwoStageRG is the static two-stage random graph baseline.
	TwoStageRG
)

var fig8Names = [...]string{
	"flat-tree global", "flat-tree local", "flat-tree Clos (k-sp)",
	"flat-tree Clos (ECMP)", "random graph", "two-stage random graph",
}

func (n Fig8Network) String() string { return fig8Names[n] }

// Fig8Networks lists all six compared networks.
func Fig8Networks() []Fig8Network {
	return []Fig8Network{FTGlobal, FTLocal, FTClosKSP, FTClosECMP, RandomGraph, TwoStageRG}
}

// Fig8K is the concurrent path count used for MPTCP in the FCT simulations.
const Fig8K = 8

// Fig8Series is one CDF line of Figure 8: FCTs of one workload on one
// network.
type Fig8Series struct {
	Workload string
	Network  Fig8Network
	// FCTs in milliseconds, one per completed flow.
	FCTs []float64
	CDF  metrics.CDF
}

// Fig8Result holds every series of the figure.
type Fig8Result struct {
	Base   string
	Series []Fig8Series
}

// Fig8Workloads returns the four trace names.
func Fig8Workloads() []string { return []string{"hadoop-1", "hadoop-2", "web", "cache"} }

// Fig8 runs the trace-driven FCT comparison at the configured scale: the
// flat-tree base topology is topo-1 (mini-1 reduced), following §5.2's
// choice of topo-1 as the representative practical topology.
func (c Config) Fig8() (*Fig8Result, error) {
	return c.Fig8With(Fig8Workloads(), Fig8Networks())
}

// fig8Flows generates the flows of one workload on the base Clos shape.
func (c Config) fig8Flows(workload string, cp topo.ClosParams) ([]traffic.Flow, error) {
	servers := cp.TotalServers()
	perRack := cp.ServersPerEdge
	racksPerPod := cp.EdgesPerPod
	nFlows := 1500
	coflows := 150
	if c.Full {
		nFlows = 40000
		coflows = 4000
	}
	switch workload {
	case "hadoop-1":
		// Rack-level shuffle coflows, 8 server flows each at 10x volume.
		return traffic.Hadoop1Trace(servers, perRack, coflows, 40*traffic.MB, 2.0, c.Seed+11), nil
	default:
		spec, err := traffic.FacebookSpec(workload, servers, perRack, racksPerPod, nFlows, c.Seed+13)
		if err != nil {
			return nil, err
		}
		spec.Duration = 2.0
		// Scale sizes up so the fabric sees real contention at the
		// reduced server count (the paper's traces saturate 10G links).
		spec.SizeMedianGbit *= 40
		return traffic.Generate(spec)
	}
}

// fig8Topology realizes one of the compared networks from the base Clos.
func (c Config) fig8Topology(n Fig8Network, cp topo.ClosParams) (*topo.Topology, error) {
	switch n {
	case FTGlobal, FTLocal, FTClosKSP, FTClosECMP:
		nw, err := core.New(cp, flatTreeOptions(cp))
		if err != nil {
			return nil, err
		}
		switch n {
		case FTGlobal:
			nw.SetMode(core.ModeGlobal)
		case FTLocal:
			nw.SetMode(core.ModeLocal)
		default:
			nw.SetMode(core.ModeClos)
		}
		return nw.Realize().Topo, nil
	case RandomGraph:
		p := topo.FromClosEquipment(cp)
		p.Seed = c.Seed + 21
		return topo.BuildRandomGraph(p)
	case TwoStageRG:
		return topo.BuildTwoStageRandomGraph(topo.TwoStageParams{
			Name: cp.Name + "-2stage", Clos: cp, Seed: c.Seed + 22,
		})
	}
	return nil, fmt.Errorf("experiments: unknown Fig8 network %d", int(n))
}

// Fig8With runs explicit workloads and networks.
func (c Config) Fig8With(workloads []string, networks []Fig8Network) (*Fig8Result, error) {
	base := "mini-1"
	if c.Full {
		base = "topo-1"
	}
	cp, err := c.paramsByName(base)
	if err != nil {
		return nil, err
	}
	res := &Fig8Result{Base: base}

	// Realize each compared network serially (conversion itself is cheap
	// and its telemetry spans stay ordered), then fan the (network,
	// workload) simulations out on the bounded pool. Series keep the
	// networks-outer / workloads-inner order via their job index.
	type netState struct {
		topo    *topo.Topology
		table   *routing.Table
		caps    []float64
		servers []int
	}
	states := make([]netState, len(networks))
	for ni, n := range networks {
		t, err := c.fig8Topology(n, cp)
		if err != nil {
			return nil, err
		}
		states[ni] = netState{
			topo:    t,
			table:   routing.BuildKShortestCached(t, Fig8K),
			caps:    routing.DirectedCaps(t.G),
			servers: t.Servers(),
		}
	}

	res.Series = make([]Fig8Series, len(networks)*len(workloads))
	err = parallel.Default().ForEachErr(context.Background(), len(res.Series), func(_ context.Context, ji int) error {
		ni, wi := ji/len(workloads), ji%len(workloads)
		n, w, st := networks[ni], workloads[wi], states[ni]
		flows, err := c.fig8Flows(w, cp)
		if err != nil {
			return err
		}
		specs := make([]flowsim.ConnSpec, 0, len(flows))
		for fi, f := range flows {
			var dp [][]int
			if n == FTClosECMP {
				p, ok := st.table.ECMPServerPath(st.servers[f.Src], st.servers[f.Dst],
					routing.FlowHash(f.Src, f.Dst, fi))
				if !ok {
					return fmt.Errorf("fig8: no ECMP path for flow %d", fi)
				}
				dp = [][]int{routing.DirectedLinkIDs(st.topo.G, p)}
			} else {
				dp = st.table.ServerSlots(st.servers[f.Src], st.servers[f.Dst])
			}
			specs = append(specs, flowsim.ConnSpec{Paths: dp, Bits: f.Bits, Arrival: f.Arrival})
		}
		sim := flowsim.NewSim(st.caps, specs)
		results, err := sim.Run()
		if err != nil {
			return fmt.Errorf("fig8 %v %s: %w", n, w, err)
		}
		fcts := make([]float64, 0, len(results))
		for _, r := range results {
			if !math.IsInf(r.Finish, 1) {
				fcts = append(fcts, r.FCT()*1000) // ms
			}
		}
		res.Series[ji] = Fig8Series{Workload: w, Network: n, FCTs: fcts, CDF: metrics.NewCDF(fcts)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Render tabulates median / p90 / p99 FCT per workload and network —
// the summary statistics of the Figure 8 CDFs.
func (r *Fig8Result) Render() string {
	t := &metrics.Table{Header: []string{"workload", "network", "median ms", "p90 ms", "p99 ms", "mean ms"}}
	for _, s := range r.Series {
		t.Add(s.Workload, s.Network.String(),
			metrics.Percentile(s.FCTs, 0.5), metrics.Percentile(s.FCTs, 0.9),
			metrics.Percentile(s.FCTs, 0.99), metrics.Mean(s.FCTs))
	}
	return fmt.Sprintf("-- FCT distributions on %s --\n%s", r.Base, t.String())
}
