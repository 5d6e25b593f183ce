package main

import (
	"context"
	"fmt"
	"math"

	"flattree/internal/churn"
	"flattree/internal/control"
	"flattree/internal/core"
	"flattree/internal/experiments"
	"flattree/internal/flowsim"
	"flattree/internal/metrics"
	"flattree/internal/parallel"
	"flattree/internal/routing"
	"flattree/internal/topo"
	"flattree/internal/traffic"
)

// churn_replay is experiments.Config.Churn at reduced scale, replayed over
// a list of seeds: mini-1 in Clos and global mode, k=8, 6 failures in a
// 1 s window with 0.5 s MTTR, permutation traffic of 20 Gbit flows and a
// 60 s horizon. Set-up realizes both modes and warms their healthy route
// tables; a timed pass generates each seed's trace, compiles it, and runs
// the baseline and churned simulations, modes fanned out on the pool.
//
// How much repair work a seed makes varies from seed to seed, so a run
// replays procsPerRun*churnSeedCount seeds: each of its processes replays
// its own slice of churnSeedCount, and the run's run_s is the sum of the
// slices' pass times.

// churnSeedCount sizes one process's timed pass to a few seconds on two
// cores.
const churnSeedCount = 4

// churnSeeds derives n seeds of the run's seed list, from its first-th on.
func churnSeeds(seed int64, first, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = seed*1000 + int64(first+i)
	}
	return out
}

// These repeat Config.Churn's reduced-scale settings.
const (
	churnFailures = 6
	churnWindow   = 1.0
	churnMTTR     = 0.5
	churnHorizon  = 60.0
	churnK        = 8
	churnBits     = 20
	churnDetect   = 0.05
)

func churnModes() []core.Mode { return []core.Mode{core.ModeClos, core.ModeGlobal} }

// churnCell is one (seed, mode) replay's outputs.
type churnCell struct {
	seed     int64
	mode     core.Mode
	plan     *churn.Plan
	trace    churn.Trace
	base     []flowsim.ConnResult
	res      []flowsim.ConnResult
	errTrace error
	errComp  error
	errBase  error
	errRun   error
}

func (cl *churnCell) key() string { return fmt.Sprintf("%d/%s", cl.seed, cl.mode) }

// churnReplay runs one (seed, mode) cell the way Config.Churn's loop body
// does, minus the realization set-up already did.
func churnReplay(c *child, t *topo.Topology, cl *churnCell, delay control.DelayModel, parent int) {
	servers := t.Servers()
	var conns []churn.Conn
	for _, pr := range traffic.Permutation(len(servers), cl.seed) {
		conns = append(conns, churn.Conn{Src: servers[pr.Src], Dst: servers[pr.Dst], Bits: churnBits})
	}
	eng := &churn.Engine{Topo: t, K: churnK, Detection: churnDetect, Delay: delay}
	sp := c.tr.begin("churn.trace", parent)
	cl.trace, cl.errTrace = churn.GenerateTraceChecked(t, churnFailures, churnWindow, churnMTTR, cl.seed+31)
	c.tr.end(sp)
	if cl.errTrace != nil {
		return
	}
	sp = c.tr.begin("churn.compile", parent)
	cl.plan, cl.errComp = eng.Compile(cl.trace, conns)
	c.tr.end(sp)
	if cl.errComp != nil {
		return
	}
	caps := routing.DirectedCaps(t.G)
	sp = c.tr.begin("flowsim.run", parent)
	cl.base, cl.errBase = flowsim.NewSim(caps, cl.plan.Specs).Run()
	c.tr.end(sp)
	sim := flowsim.NewSim(caps, cl.plan.Specs)
	sim.Schedule(cl.plan.Events)
	sim.Horizon = churnHorizon
	sp = c.tr.begin("flowsim.run", parent)
	cl.res, cl.errRun = sim.Run()
	c.tr.end(sp)
}

// checkChurn verifies one cell: the compile (its reactions and rule
// deltas against the pin), the baseline run (every flow finishes) and the
// churned run (completed plus unfinished equals planned).
func checkChurn(c *child, cl *churnCell) {
	key := cl.key()
	if cl.errTrace != nil {
		c.fail("%s trace: %v", key, cl.errTrace)
		return
	}
	if cl.errComp != nil {
		c.fail("%s compile: %v", key, cl.errComp)
		return
	}
	p := cl.plan
	reroutes, rules := 0, 0
	for _, ev := range p.Events {
		if len(ev.Reroute) > 0 {
			reroutes++
		}
	}
	d := newDigester()
	d.int(len(p.Reactions))
	for _, r := range p.Reactions {
		d.f64(r)
	}
	d.int(len(p.Deltas))
	for _, rd := range p.Deltas {
		d.delta(rd)
		rules += rd.TotalAdds() + rd.TotalDels()
	}
	c.count("churn.events", float64(len(cl.trace)))
	c.count("churn.reroute_events", float64(reroutes))
	c.count("churn.rules_changed", float64(rules))
	switch {
	case len(p.Reactions) != len(cl.trace) || len(p.Deltas) != len(cl.trace):
		c.fail("%s compile: %d reactions and %d deltas for %d trace events", key, len(p.Reactions), len(p.Deltas), len(cl.trace))
	case !c.digestOK(key+"/plan", d.sum()):
		c.fail("%s compile: plan digest differs from its pin", key)
	default:
		c.ok()
	}
	checkRun(c, key+"/base", p.Specs, cl.base, cl.errBase, false)
	checkRun(c, key+"/churn", p.Specs, cl.res, cl.errRun, true)
}

// churnState is the realized topology of each mode.
type churnState struct {
	topos []*topo.Topology
	delay control.DelayModel
}

func churnSetup(c *child) (*churnState, error) {
	st := &churnState{delay: control.TestbedDelayModel()}
	st.delay.Parallel = true
	for _, m := range churnModes() {
		t, _, err := flatTree(c, m)
		if err != nil {
			return nil, err
		}
		buildTable(c, t, churnK)
		st.topos = append(st.topos, t)
	}
	return st, nil
}

// churnPass replays every (seed, mode) cell, seeds in order and modes on
// the pool as Config.Churn runs them.
func churnPass(c *child, st *churnState, seeds []int64, parent int) []*churnCell {
	modes := churnModes()
	var cells []*churnCell
	for _, s := range seeds {
		row := make([]*churnCell, len(modes))
		for mi, m := range modes {
			row[mi] = &churnCell{seed: s, mode: m}
		}
		// Cell errors are kept in the cells and reported by checkChurn.
		_ = parallel.Default().ForEachErr(context.Background(), len(modes), func(_ context.Context, mi int) error {
			churnReplay(c, st.topos[mi], row[mi], st.delay, parent)
			return nil
		})
		cells = append(cells, row...)
	}
	return cells
}

func runChurn(c *child, seeds []int64) error {
	st, err := churnSetup(c)
	if err != nil {
		return err
	}
	if !c.ready() {
		return nil
	}
	return c.loop(func(parent int) (func(), error) {
		cells := churnPass(c, st, seeds, parent)
		return func() {
			for _, cl := range cells {
				checkChurn(c, cl)
			}
		}, nil
	})
}

// churnRow summarizes a cell the way Config.Churn fills its row.
func churnRow(cl *churnCell) experiments.ChurnRow {
	row := experiments.ChurnRow{Mode: cl.mode}
	var baseFCT, churnFCT, stalls []float64
	for i, r := range cl.base {
		baseFCT = append(baseFCT, r.Finish-cl.plan.Specs[i].Arrival)
	}
	for i, r := range cl.res {
		row.Reroutes += r.Reroutes
		if r.StallTime > 0 {
			row.Stalled++
			stalls = append(stalls, r.StallTime)
		}
		if math.IsInf(r.Finish, 1) {
			row.Unfinished++
			continue
		}
		churnFCT = append(churnFCT, r.Finish-cl.plan.Specs[i].Arrival)
	}
	row.BaselineMeanFCT = metrics.Mean(baseFCT)
	row.BaselineP99FCT = metrics.Percentile(baseFCT, 0.99)
	row.ChurnMeanFCT = metrics.Mean(churnFCT)
	row.ChurnP99FCT = metrics.Percentile(churnFCT, 0.99)
	if len(stalls) > 0 {
		row.MeanStall = metrics.Mean(stalls)
	}
	row.MeanReaction = metrics.Mean(cl.plan.Reactions)
	return row
}
