// Package experiments regenerates every table and figure of the paper's
// evaluation (§2.1 and §5). Each experiment returns structured rows plus a
// rendered text table, and runs at two scales: the default reduced scale
// (minutes of CPU, preserving every qualitative comparison) and the
// paper's full scale via Config.Full.
//
// The per-experiment index lives in DESIGN.md; paper-versus-measured
// numbers are recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"hash/fnv"
	"math"

	"flattree/internal/core"
	"flattree/internal/flowsim"
	"flattree/internal/mcf"
	"flattree/internal/parallel"
	"flattree/internal/routing"
	"flattree/internal/telemetry"
	"flattree/internal/topo"
	"flattree/internal/traffic"
)

// Config controls experiment scale and determinism.
type Config struct {
	// Full runs the paper-scale topologies (topo-1..6, k=16 fat-tree).
	// The default reduced scale shrinks each topology proportionally.
	Full bool
	// Seed drives every stochastic component.
	Seed int64
	// Epsilon is the LP approximation accuracy, in (0, 1); zero keeps
	// mcf's default 0.1.
	Epsilon float64
	// FBMixFlows overrides the per-workload flow count of the fbmix_large
	// streaming study (0 keeps the scale defaults: 5k reduced, 250k full).
	// Set to 2_500_000 for the 10M-flow run across the four workloads.
	FBMixFlows int

	// span is the running experiment's root span, set by traced on the
	// experiment's own copy; the controllers an experiment builds file
	// their conversion spans under it.
	span *telemetry.Span
}

func (c Config) epsilon() float64 {
	if c.Epsilon == 0 {
		return 0.1
	}
	return c.Epsilon
}

// CheckFlags is the one check flatsim and benchtables run on their
// shared flags before any work. It rejects a negative -workers
// (parallel.CheckWorkers); an -epsilon outside (0, 1), since NaN or 5
// printed NaN tables and -1 or 0 ran at mcf's default 0.1; and a
// negative -fbmix-flows or -record-limit, which would silently become
// their zero defaults. The binaries print the error after their name and
// exit 2.
func CheckFlags(workers int, epsilon float64, fbmixFlows, recordLimit int) error {
	if err := parallel.CheckWorkers(workers); err != nil {
		return err
	}
	if !(epsilon > 0 && epsilon < 1) {
		return fmt.Errorf("-epsilon %v (want > 0 and < 1)", epsilon)
	}
	if fbmixFlows < 0 {
		return fmt.Errorf("-fbmix-flows %d (want >= 0; 0 = scale default)", fbmixFlows)
	}
	if recordLimit < 0 {
		return fmt.Errorf("-record-limit %d (want >= 0; 0 = recorder default)", recordLimit)
	}
	return nil
}

// MiniTable2 returns proportionally reduced versions of the Table 2
// topologies used at the default scale. Shapes preserve each topology's
// distinguishing feature: mini-2 is a uniform down-scale of mini-1, mini-3
// doubles edge oversubscription, mini-4 has fewer, larger aggregation and
// core switches (r=2), mini-5 moves half the oversubscription to the
// aggregation layer, mini-6 combines mini-4 and mini-5.
func MiniTable2() []topo.ClosParams {
	return []topo.ClosParams{
		{Name: "mini-1", Pods: 4, EdgesPerPod: 4, AggsPerPod: 4, ServersPerEdge: 8, EdgeUplinks: 4, AggUplinks: 4, Cores: 16},
		{Name: "mini-2", Pods: 4, EdgesPerPod: 4, AggsPerPod: 4, ServersPerEdge: 4, EdgeUplinks: 4, AggUplinks: 4, Cores: 16},
		{Name: "mini-3", Pods: 4, EdgesPerPod: 4, AggsPerPod: 4, ServersPerEdge: 16, EdgeUplinks: 4, AggUplinks: 4, Cores: 16},
		{Name: "mini-4", Pods: 4, EdgesPerPod: 8, AggsPerPod: 4, ServersPerEdge: 8, EdgeUplinks: 4, AggUplinks: 8, Cores: 16},
		{Name: "mini-5", Pods: 4, EdgesPerPod: 4, AggsPerPod: 4, ServersPerEdge: 8, EdgeUplinks: 8, AggUplinks: 4, Cores: 16},
		{Name: "mini-6", Pods: 4, EdgesPerPod: 8, AggsPerPod: 4, ServersPerEdge: 8, EdgeUplinks: 8, AggUplinks: 8, Cores: 16},
	}
}

// baseParams returns the evaluation topology set for the configured scale.
func (c Config) baseParams() []topo.ClosParams {
	if c.Full {
		return topo.Table2()
	}
	return MiniTable2()
}

// paramsByName resolves one topology of the configured scale; names accept
// both "topo-N" and "mini-N".
func (c Config) paramsByName(name string) (topo.ClosParams, error) {
	for _, p := range c.baseParams() {
		if p.Name == name {
			return p, nil
		}
	}
	return topo.ClosParams{}, fmt.Errorf("experiments: unknown topology %q at this scale", name)
}

// flatTreeOptions picks (n, m) for a base topology by running the §3.4
// server-distribution profiling: sweep feasible combinations and keep the
// one with the shortest global-mode average path length. The sweep
// matters: maximizing relocation (m = g-1) actually LENGTHENS paths at
// scale, because core switches then host many servers behind almost no
// switch-level links. Results are cached per parameter set; sources are
// stride-sampled on large networks to bound the BFS cost.
func flatTreeOptions(p topo.ClosParams) core.Options {
	opt, _ := parallel.Get(profileCache, fmt.Sprintf("%+v", p), func() (core.Options, error) {
		opt := core.Options{N: 1, M: 1, Pattern: core.Pattern1} // safe fallback
		stride := p.TotalServers() / 128
		if stride < 1 {
			stride = 1
		}
		if best, _, err := core.ProfileMN(p, core.Pattern1, stride); err == nil {
			opt = core.Options{N: best.N, M: best.M, Pattern: core.Pattern1}
		}
		return opt, nil
	})
	return opt
}

// profileCache memoizes §3.4 (n, m) profiling per parameter set with
// single-flight semantics, so concurrent experiments in a RunAll batch
// never profile the same topology twice.
var profileCache = parallel.NewCache("profile", 0)

// flatTreeOptionsFor picks a feasible (n, m) for an explicit wiring
// pattern, backing off m until core.New accepts the combination (pattern 2
// rejects m = g-1 when g divides m+1 — the partition hazard documented in
// core.New).
func flatTreeOptionsFor(p topo.ClosParams, patterns ...core.Pattern) (core.Options, error) {
	g := p.AggUplinks / p.R()
	for m := g - 1; m >= 1; m-- {
		n := 1
		if n+m > g {
			n = 0
		}
		if n+m > p.ServersPerEdge {
			continue
		}
		ok := true
		for _, pattern := range patterns {
			if _, err := core.New(p, core.Options{N: n, M: m, Pattern: pattern}); err != nil {
				ok = false
				break
			}
		}
		if ok {
			return core.Options{N: n, M: m, Pattern: patterns[0]}, nil
		}
	}
	return core.Options{}, fmt.Errorf("experiments: no (n, m) feasible for %s under all requested patterns", p.Name)
}

// Network instantiates the flat-tree network for a named base topology at
// the configured scale.
func (c Config) Network(name string) (*core.Network, error) {
	p, err := c.paramsByName(name)
	if err != nil {
		return nil, err
	}
	return core.New(p, flatTreeOptions(p))
}

// Method identifies a routing/transport scheme compared in §5.
type Method int

const (
	// LPMin is the "LP minimum" bound: maximize the minimum flow
	// throughput (maximum concurrent flow).
	LPMin Method = iota
	// LPAvg is the "LP average" bound: maximize total throughput.
	LPAvg
	// MPTCP4, MPTCP8, MPTCP12 are k-shortest-path routing with MPTCP
	// using 4, 8, and 12 concurrent paths.
	MPTCP4
	MPTCP8
	MPTCP12
	// ECMPTCP is single-path TCP with ECMP hashing — the conventional
	// Clos deployment.
	ECMPTCP
)

var methodNames = map[Method]string{
	LPMin: "LP minimum", LPAvg: "LP average",
	MPTCP4: "4-way MPTCP", MPTCP8: "8-way MPTCP", MPTCP12: "12-way MPTCP",
	ECMPTCP: "ECMP TCP",
}

func (m Method) String() string { return methodNames[m] }

// K returns the concurrent-path count of an MPTCP method (0 otherwise).
func (m Method) K() int {
	switch m {
	case MPTCP4:
		return 4
	case MPTCP8:
		return 8
	case MPTCP12:
		return 12
	}
	return 0
}

// commoditiesFor converts server-index pairs to MCF commodities on a
// realized topology.
func commoditiesFor(t *topo.Topology, pairs []traffic.Pair) []mcf.Commodity {
	servers := t.Servers()
	out := make([]mcf.Commodity, len(pairs))
	for i, p := range pairs {
		out[i] = mcf.Commodity{Src: servers[p.Src], Dst: servers[p.Dst], Demand: 1}
	}
	return out
}

// mptcpSpecs builds MPTCP connection specs (every table path, directed
// links) for server-index pairs. Persistent connections are used for
// throughput experiments (bits = +Inf).
func mptcpSpecs(t *topo.Topology, table *routing.Table, pairs []traffic.Pair) []flowsim.ConnSpec {
	servers := t.Servers()
	specs := make([]flowsim.ConnSpec, 0, len(pairs))
	for _, pr := range pairs {
		dp := table.ServerSlots(servers[pr.Src], servers[pr.Dst])
		specs = append(specs, flowsim.ConnSpec{Paths: dp, Bits: math.Inf(1)})
	}
	return specs
}

// lpCache memoizes Garg-Könemann LP solutions across experiment cells:
// Figure 7 re-solves exactly the LP instances Figure 6's first panel
// already solved, and ablations re-visit Table 2 topologies. Keys cover
// every input of a solve — topology fingerprint (which fixes the arc
// numbering), objective, epsilon, and the commodity list.
var lpCache = parallel.NewCache("lp", 128)

// commsKey hashes a commodity list for the LP cache key.
func commsKey(comms []mcf.Commodity) string {
	h := fnv.New64a()
	var buf [8]byte
	wi := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, c := range comms {
		wi(uint64(int64(c.Src)))
		wi(uint64(int64(c.Dst)))
		wi(math.Float64bits(c.Demand))
	}
	return fmt.Sprintf("%d-%016x", len(comms), h.Sum64())
}

// lpSolve runs (or reuses) one LP solve. The cached result is shared
// between cells, so callers receive a private copy of PerFlow.
func (c Config) lpSolve(t *topo.Topology, pairs []traffic.Pair, objective string) ([]float64, error) {
	comms := commoditiesFor(t, pairs)
	key := fmt.Sprintf("%s|%s|eps=%g|%s", t.Fingerprint(), objective, c.epsilon(), commsKey(comms))
	res, err := parallel.Get(lpCache, key, func() (*mcf.Result, error) {
		var r mcf.Result
		var err error
		if objective == "concurrent" {
			r, err = mcf.MaxConcurrent(t.G, comms, mcf.Options{Epsilon: c.epsilon()})
		} else {
			r, err = mcf.MaxTotal(t.G, comms, mcf.Options{Epsilon: c.epsilon()})
		}
		if err != nil {
			return nil, err
		}
		return &r, nil
	})
	if err != nil {
		return nil, err
	}
	return append([]float64(nil), res.PerFlow...), nil
}

// methodThroughputs returns the per-flow throughput of every pair under
// the given method on a realized topology. table may be nil (one is built
// on demand for path-based methods); when provided it must hold at least
// the method's k paths per pair. Route tables and LP solutions are served
// from the cross-run caches when a structurally identical cell ran before.
func (c Config) methodThroughputs(t *topo.Topology, table *routing.Table, pairs []traffic.Pair, m Method) ([]float64, error) {
	needK := m.K()
	if m == ECMPTCP {
		needK = 4
	}
	if table == nil && needK > 0 {
		table = routing.BuildKShortestCached(t, needK)
	}
	switch m {
	case LPMin:
		return c.lpSolve(t, pairs, "concurrent")
	case LPAvg:
		return c.lpSolve(t, pairs, "total")
	case MPTCP4, MPTCP8, MPTCP12:
		specs := mptcpSpecs(t, table.WithK(m.K()), pairs)
		return flowsim.StaticRates(routing.DirectedCaps(t.G), specs, topo.DefaultLinkCapacity)
	case ECMPTCP:
		servers := t.Servers()
		specs := make([]flowsim.ConnSpec, 0, len(pairs))
		for i, pr := range pairs {
			p, ok := table.ECMPServerPath(servers[pr.Src], servers[pr.Dst], routing.FlowHash(pr.Src, pr.Dst, i))
			if !ok {
				return nil, fmt.Errorf("experiments: no ECMP path for pair %v", pr)
			}
			specs = append(specs, flowsim.ConnSpec{
				Paths: [][]int{routing.DirectedLinkIDs(t.G, p)},
				Bits:  math.Inf(1),
			})
		}
		return flowsim.StaticRates(routing.DirectedCaps(t.G), specs, topo.DefaultLinkCapacity)
	}
	return nil, fmt.Errorf("experiments: unknown method %v", m)
}

// maxK returns the largest k any of the methods needs from a route table.
func maxK(methods []Method) int {
	k := 0
	for _, m := range methods {
		mk := m.K()
		if m == ECMPTCP {
			mk = 4
		}
		if mk > k {
			k = mk
		}
	}
	return k
}

// sortedModes lists the three uniform modes in presentation order.
func sortedModes() []core.Mode {
	return []core.Mode{core.ModeGlobal, core.ModeLocal, core.ModeClos}
}

// Result bundles an experiment's rendered table and its identifier.
type Result struct {
	Name  string
	Table string
}

func (r Result) String() string {
	return fmt.Sprintf("== %s ==\n%s", r.Name, r.Table)
}
