package main

import (
	"fmt"
	"math"

	"flattree/internal/core"
	"flattree/internal/experiments"
	"flattree/internal/flowsim"
	"flattree/internal/graph"
	"flattree/internal/parallel"
	"flattree/internal/routing"
	"flattree/internal/topo"
	"flattree/internal/traffic"
)

// fct_batch is Figure 8 at reduced scale, built the way
// experiments.Config.Fig8With builds it: set-up realizes the six networks
// on mini-1, builds their k=8 route tables, generates the four traces and
// the connection specs; a timed pass is the 24 Sim.Run calls fanned out on
// the worker pool.

// fctConfig selects the traces and networks; the benchmark runs all of
// them, the equivalence test a subset.
type fctConfig struct {
	workloads []string
	networks  []experiments.Fig8Network
}

func fctFull() fctConfig {
	return fctConfig{experiments.Fig8Workloads(), experiments.Fig8Networks()}
}

// fctCell is one (network, trace) simulation.
type fctCell struct {
	network  experiments.Fig8Network
	workload string
	caps     []float64
	specs    []flowsim.ConnSpec
}

func (cl fctCell) key() string { return cl.network.String() + "/" + cl.workload }

// miniParams returns the mini-1 base topology of the reduced scale.
func miniParams() (topo.ClosParams, error) {
	for _, p := range experiments.MiniTable2() {
		if p.Name == "mini-1" {
			return p, nil
		}
	}
	return topo.ClosParams{}, fmt.Errorf("mini-1 is not in experiments.MiniTable2")
}

// flatTree builds the profiled flat-tree network on mini-1 and realizes
// it in one mode.
func flatTree(c *child, mode core.Mode) (*topo.Topology, *core.Network, error) {
	sp := c.tr.begin("experiments.network", c.setupSpan)
	nw, err := experiments.Config{Seed: c.seed}.Network("mini-1")
	c.tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	nw.SetMode(mode)
	sp = c.tr.begin("core.realize", c.setupSpan)
	t := nw.Realize().Topo
	c.tr.end(sp)
	return t, nw, nil
}

func buildTable(c *child, t *topo.Topology, k int) *routing.Table {
	sp := c.tr.begin("routing.build", c.setupSpan)
	defer c.tr.end(sp)
	return routing.BuildKShortestCached(t, k)
}

// fctTopology realizes one compared network.
func fctTopology(c *child, n experiments.Fig8Network, cp topo.ClosParams) (*topo.Topology, error) {
	switch n {
	case experiments.FTGlobal, experiments.FTLocal, experiments.FTClosKSP, experiments.FTClosECMP:
		mode := core.ModeClos
		switch n {
		case experiments.FTGlobal:
			mode = core.ModeGlobal
		case experiments.FTLocal:
			mode = core.ModeLocal
		}
		t, _, err := flatTree(c, mode)
		return t, err
	case experiments.RandomGraph:
		sp := c.tr.begin("topo.build", c.setupSpan)
		defer c.tr.end(sp)
		p := topo.FromClosEquipment(cp)
		p.Seed = c.seed + 21
		return topo.BuildRandomGraph(p)
	case experiments.TwoStageRG:
		sp := c.tr.begin("topo.build", c.setupSpan)
		defer c.tr.end(sp)
		return topo.BuildTwoStageRandomGraph(topo.TwoStageParams{Name: cp.Name + "-2stage", Clos: cp, Seed: c.seed + 22})
	}
	return nil, fmt.Errorf("unknown Fig8 network %d", int(n))
}

// fctTrace generates one Figure 8 trace on the base Clos shape.
func fctTrace(c *child, workload string, cp topo.ClosParams) ([]traffic.Flow, error) {
	sp := c.tr.begin("traffic.gen", c.setupSpan)
	defer c.tr.end(sp)
	if workload == "hadoop-1" {
		return traffic.Hadoop1Trace(cp.TotalServers(), cp.ServersPerEdge, 150, 40*traffic.MB, 2.0, c.seed+11), nil
	}
	spec, err := traffic.FacebookSpec(workload, cp.TotalServers(), cp.ServersPerEdge, cp.EdgesPerPod, 1500, c.seed+13)
	if err != nil {
		return nil, err
	}
	spec.Duration = 2.0
	spec.SizeMedianGbit *= 40
	return traffic.Generate(spec)
}

// fctSpecs routes one trace on one network.
func fctSpecs(c *child, n experiments.Fig8Network, t *topo.Topology, table *routing.Table, flows []traffic.Flow) ([]flowsim.ConnSpec, error) {
	sp := c.tr.begin("routing.paths", c.setupSpan)
	defer c.tr.end(sp)
	servers := t.Servers()
	specs := make([]flowsim.ConnSpec, 0, len(flows))
	for fi, f := range flows {
		var paths []graph.Path
		if n == experiments.FTClosECMP {
			p, ok := table.ECMPServerPath(servers[f.Src], servers[f.Dst], routing.FlowHash(f.Src, f.Dst, fi))
			if !ok {
				return nil, fmt.Errorf("fct_batch: no ECMP path for flow %d", fi)
			}
			paths = []graph.Path{p}
		} else {
			paths = table.ServerPaths(servers[f.Src], servers[f.Dst])
			if len(paths) > experiments.Fig8K {
				paths = paths[:experiments.Fig8K]
			}
		}
		dp := make([][]int, len(paths))
		for i, p := range paths {
			dp[i] = routing.DirectedLinkIDs(t.G, p)
		}
		specs = append(specs, flowsim.ConnSpec{Paths: dp, Bits: f.Bits, Arrival: f.Arrival})
	}
	return specs, nil
}

// fctSetup builds every cell, networks outer and traces inner, the order
// of Fig8Result.Series.
func fctSetup(c *child, cfg fctConfig) ([]fctCell, error) {
	cp, err := miniParams()
	if err != nil {
		return nil, err
	}
	traces := make([][]traffic.Flow, len(cfg.workloads))
	for wi, w := range cfg.workloads {
		if traces[wi], err = fctTrace(c, w, cp); err != nil {
			return nil, err
		}
		c.count("traffic.flows", float64(len(traces[wi])))
	}
	var cells []fctCell
	for _, n := range cfg.networks {
		t, err := fctTopology(c, n, cp)
		if err != nil {
			return nil, err
		}
		table := buildTable(c, t, experiments.Fig8K)
		caps := routing.DirectedCaps(t.G)
		for wi, w := range cfg.workloads {
			specs, err := fctSpecs(c, n, t, table, traces[wi])
			if err != nil {
				return nil, err
			}
			cells = append(cells, fctCell{network: n, workload: w, caps: caps, specs: specs})
		}
	}
	return cells, nil
}

// fctPass runs every cell once on the pool and returns the results.
func fctPass(c *child, cells []fctCell, parent int) ([][]flowsim.ConnResult, []error) {
	results := make([][]flowsim.ConnResult, len(cells))
	errs := make([]error, len(cells))
	parallel.Default().ForEach(len(cells), func(i int) {
		sp := c.tr.begin("flowsim.run", parent)
		results[i], errs[i] = flowsim.NewSim(cells[i].caps, cells[i].specs).Run()
		c.tr.end(sp)
	})
	return results, errs
}

// checkRun verifies one finished simulation: it ran, returned one result
// per planned connection, finished every finite flow when no horizon cut
// it, and matches its pinned digest. It also adds the run's flowsim counts.
func checkRun(c *child, key string, specs []flowsim.ConnSpec, res []flowsim.ConnResult, err error, horizon bool) {
	c.count("flowsim.runs", 1)
	if err != nil {
		c.fail("%s: %v", key, err)
		return
	}
	if len(res) != len(specs) {
		c.fail("%s: %d results for %d planned connections", key, len(res), len(specs))
		return
	}
	subflows, reroutes, stalled := 0, 0, 0
	for i, r := range res {
		subflows += len(specs[i].Paths)
		reroutes += r.Reroutes
		if r.StallTime > 0 {
			stalled++
		}
		if !horizon && !math.IsInf(specs[i].Bits, 1) && math.IsInf(r.Finish, 1) {
			c.fail("%s: finite flow %d never finished", key, i)
			return
		}
	}
	c.count("flowsim.flows", float64(len(res)))
	c.count("flowsim.subflows", float64(subflows))
	c.count("flowsim.reroutes", float64(reroutes))
	c.count("flowsim.stalled", float64(stalled))
	if !c.digestOK(key, resultsDigest(res)) {
		c.fail("%s: results digest differs from its pin", key)
		return
	}
	c.ok()
}

func runFCT(c *child, cfg fctConfig) error {
	cells, err := fctSetup(c, cfg)
	if err != nil {
		return err
	}
	if !c.ready() {
		return nil
	}
	return c.loop(func(parent int) (func(), error) {
		results, errs := fctPass(c, cells, parent)
		return func() {
			for i, cl := range cells {
				checkRun(c, cl.key(), cl.specs, results[i], errs[i], false)
			}
		}, nil
	})
}

// fctFCTs returns a cell's completion times in milliseconds, the way
// Fig8With fills Fig8Series.FCTs.
func fctFCTs(res []flowsim.ConnResult) []float64 {
	fcts := make([]float64, 0, len(res))
	for _, r := range res {
		if !math.IsInf(r.Finish, 1) {
			fcts = append(fcts, r.FCT()*1000)
		}
	}
	return fcts
}
