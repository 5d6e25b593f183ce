package main

import (
	"math"

	"flattree/internal/core"
	"flattree/internal/experiments"
	"flattree/internal/flowsim"
	"flattree/internal/routing"
	"flattree/internal/topo"
	"flattree/internal/traffic"
)

// fbmix_stream is experiments.Config.FBMix: the four Facebook traces
// streamed back to back through Sim.RunStream on flat-tree Clos mode with
// k=4 ECMP, at 20k flows/s arrival and 0.25x flow size. Set-up realizes
// the network and builds its table; a timed pass streams all four traces.

// fbmixFlowsPerTrace sizes a timed pass to a few seconds on two cores.
const fbmixFlowsPerTrace = 60_000

// These repeat the fbmix_large constants of internal/experiments; the
// equivalence test fails if they drift.
const (
	fbmixArrivalRate = 20_000.0
	fbmixSizeScale   = 0.25
	fbmixK           = 4
)

// fbmixSummary is one trace's outcome, shaped like experiments.FBMixRow.
type fbmixSummary struct {
	Workload                     string
	Flows, Completed, Unfinished int
	MeanMs, P50Ms, P99Ms         float64
}

// fbmixState is the realized network with its route table.
type fbmixState struct {
	topo            *topo.Topology
	table           *routing.Table
	caps            []float64
	servers         []int
	perRack, perPod int
}

func fbmixSetup(c *child) (*fbmixState, error) {
	t, _, err := flatTree(c, core.ModeClos)
	if err != nil {
		return nil, err
	}
	cp, err := miniParams()
	if err != nil {
		return nil, err
	}
	return &fbmixState{topo: t, table: buildTable(c, t, fbmixK), caps: routing.DirectedCaps(t.G),
		servers: t.Servers(), perRack: cp.ServersPerEdge, perPod: cp.EdgesPerPod}, nil
}

// fbmixTrace streams one trace and checks it. It returns the summary and
// the trace's peak of pulled-but-not-retired flows.
func fbmixTrace(c *child, st *fbmixState, w string, nFlows, parent int) (fbmixSummary, int, error) {
	duration := float64(nFlows) / fbmixArrivalRate
	var next func() (traffic.Flow, bool)
	var planned int
	switch w {
	case "hadoop-1":
		coflows := max(nFlows/8, 1)
		s := traffic.NewHadoop1Stream(len(st.servers), st.perRack, coflows, fbmixSizeScale*traffic.MB, duration, c.seed+11)
		planned, next = s.Len(), s.Next
	default:
		spec, err := traffic.FacebookSpec(w, len(st.servers), st.perRack, st.perPod, nFlows, c.seed+13)
		if err != nil {
			return fbmixSummary{}, 0, err
		}
		spec.Duration = duration
		spec.SizeMedianGbit *= fbmixSizeScale
		s, err := traffic.NewStream(spec)
		if err != nil {
			return fbmixSummary{}, 0, err
		}
		planned, next = s.Len(), s.Next
	}

	sp := c.tr.begin("flowsim.stream", parent)
	pullAgg := c.tr.agg("bench.pull", sp)
	genAgg := c.tr.aggUnder("traffic.gen", pullAgg)
	pathsAgg := c.tr.aggUnder("routing.paths", pullAgg)
	sinkAgg := c.tr.agg("flowsim.sink", sp)

	fi, pulled, retired, peak, subflows, reroutes, stalled := 0, 0, 0, 0, 0, 0, 0
	// The pull callback's three spans share their clock reads: traffic.gen
	// ends where routing.paths begins, and bench.pull spans both.
	pull := func() (flowsim.ConnSpec, bool) {
		t0 := pullAgg.start()
		f, ok := next()
		t1 := genAgg.stop(t0)
		if !ok {
			pullAgg.addRange(t0, t1)
			return flowsim.ConnSpec{}, false
		}
		spec := flowsim.ConnSpec{Bits: f.Bits, Arrival: f.Arrival}
		if p, ok := st.table.ECMPServerPath(st.servers[f.Src], st.servers[f.Dst], routing.FlowHash(f.Src, f.Dst, fi)); ok {
			spec.Paths = [][]int{routing.DirectedLinkIDs(st.topo.G, p)}
		}
		t2 := pathsAgg.stop(t1)
		pullAgg.addRange(t0, t2)
		fi++
		pulled++
		subflows += len(spec.Paths)
		peak = max(peak, pulled-retired)
		return spec, true
	}
	var hist fctHist
	unfinished := 0
	dg := newStreamDigester()
	sink := func(id int, res flowsim.ConnResult) {
		t0 := sinkAgg.start()
		retired++
		dg.result(id, res)
		reroutes += res.Reroutes
		if res.StallTime > 0 {
			stalled++
		}
		if math.IsInf(res.Finish, 1) {
			unfinished++
		} else {
			hist.add(res.FCT())
		}
		sinkAgg.stop(t0)
	}
	err := flowsim.NewSim(st.caps, nil).RunStream(pull, sink)
	c.tr.end(sp)

	c.count("flowsim.runs", 1)
	c.count("traffic.flows", float64(pulled))
	c.count("flowsim.flows", float64(retired))
	c.count("flowsim.subflows", float64(subflows))
	c.count("flowsim.reroutes", float64(reroutes))
	c.count("flowsim.stalled", float64(stalled))
	sum := fbmixSummary{
		Workload: w, Flows: planned, Completed: int(hist.n), Unfinished: unfinished,
		MeanMs: hist.mean() * 1000, P50Ms: hist.quantile(0.5) * 1000, P99Ms: hist.quantile(0.99) * 1000,
	}
	switch {
	case err != nil:
		c.fail("fbmix %s: %v", w, err)
	case retired != planned || pulled != planned:
		c.fail("fbmix %s: pulled %d, completed %d + unfinished %d, planned %d", w, pulled, sum.Completed, unfinished, planned)
	case unfinished > 0:
		c.fail("fbmix %s: %d finite flows never finished", w, unfinished)
	case !c.digestOK(w, dg.sum()):
		c.fail("fbmix %s: streamed results digest differs from its pin", w)
	default:
		c.ok()
	}
	return sum, peak, nil
}

// fbmixPass streams the four traces back to back.
func fbmixPass(c *child, st *fbmixState, nFlows, parent int) ([]fbmixSummary, error) {
	var out []fbmixSummary
	peak := 0
	for _, w := range experiments.FBMixWorkloads() {
		s, p, err := fbmixTrace(c, st, w, nFlows, parent)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		peak = max(peak, p)
	}
	c.count("flowsim.peak_flows", float64(peak))
	return out, nil
}

func runFBMix(c *child, nFlows int) error {
	st, err := fbmixSetup(c)
	if err != nil {
		return err
	}
	if !c.ready() {
		return nil
	}
	return c.loop(func(parent int) (func(), error) {
		_, err := fbmixPass(c, st, nFlows, parent)
		return func() {}, err
	})
}

// fctHist repeats experiments' fbmix histogram: 1024 log-spaced buckets
// over [1e-7, 1e3) seconds, exact mean, bucket-midpoint quantiles.
type fctHist struct {
	counts [fctBuckets]int64
	n      int64
	sum    float64
}

const (
	fctBuckets = 1024
	fctFloor   = 1e-7
	fctDecades = 10
)

func (h *fctHist) add(fct float64) {
	h.n++
	h.sum += fct
	idx := 0
	if fct > fctFloor {
		idx = min(max(int(math.Log10(fct/fctFloor)*fctBuckets/fctDecades), 0), fctBuckets-1)
	}
	h.counts[idx]++
}

func (h *fctHist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

func (h *fctHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q * float64(h.n-1))
	cum := int64(0)
	for idx, c := range h.counts {
		cum += c
		if cum > rank {
			return fctFloor * math.Pow(10, (float64(idx)+0.5)*fctDecades/fctBuckets)
		}
	}
	return fctFloor * math.Pow(10, fctDecades)
}
