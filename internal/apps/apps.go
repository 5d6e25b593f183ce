// Package apps models the two data center applications of §5.4 on the
// emulated testbed: the Spark Word2Vec broadcast (torrent-style model
// distribution) and the Hadoop/Tez Sort shuffle. Their communication
// phases run as MPTCP flows on the flow-level simulator; serialization /
// deserialization overhead is a mode-independent constant, so any
// improvement between modes comes from the network alone — the question
// §5.4 asks.
package apps

import (
	"fmt"
	"math"
	"sort"

	"flattree/internal/core"
	"flattree/internal/flowsim"
	"flattree/internal/metrics"
	"flattree/internal/routing"
	"flattree/internal/testbed"
)

// SerdeOverhead is the per-read serialization + deserialization cost in
// seconds, added to every data flow read (§5.4: "the end-to-end data read
// time includes the time for data serialization and deserialization").
const SerdeOverhead = 0.45

// Result reports one application phase under one topology mode.
type Result struct {
	Mode core.Mode
	// ReadDuration is the average end-to-end data flow read time in
	// seconds (Figure 11's left axis).
	ReadDuration float64
	// PhaseDuration is the whole communication phase in seconds
	// (Figure 11's right axis).
	PhaseDuration float64
}

// connsFor builds MPTCP connection specs for the given flows on the
// current testbed topology.
func connsFor(tb *testbed.Testbed, flows [][3]float64) ([]flowsim.ConnSpec, []float64) {
	r := tb.Ctrl.Realization()
	table := tb.Ctrl.Table()
	servers := r.Topo.Servers()
	caps := routing.DirectedCaps(r.Topo.G)
	specs := make([]flowsim.ConnSpec, 0, len(flows))
	for _, f := range flows {
		src, dst, bits := int(f[0]), int(f[1]), f[2]
		dp := table.ServerSlots(servers[src], servers[dst])
		specs = append(specs, flowsim.ConnSpec{Paths: dp, Bits: bits})
	}
	return specs, caps
}

// runPhase simulates one batch of simultaneous flows and returns per-flow
// completion times. The MPTCP efficiency discount of the testbed applies.
func runPhase(tb *testbed.Testbed, flows [][3]float64) ([]float64, error) {
	specs, caps := connsFor(tb, flows)
	// Discount capacities for MPTCP/CPU overhead instead of scaling each
	// result, keeping completion-time semantics exact.
	for i := range caps {
		caps[i] *= testbed.MPTCPEfficiency
	}
	res, err := flowsim.NewSim(caps, specs).Run()
	if err != nil {
		return nil, err
	}
	fcts := make([]float64, len(res))
	for i, r := range res {
		if math.IsInf(r.Finish, 1) {
			return nil, fmt.Errorf("apps: flow %d never completed", i)
		}
		fcts[i] = r.FCT()
	}
	return fcts, nil
}

// SparkBroadcast models the Word2Vec iterative broadcast: per iteration
// the master's updated model spreads to all workers in torrent fashion —
// in each round, every server holding the model sends it to one server
// that lacks it, doubling the holder set until all nServers have it.
//
// modelBits is the serialized model size; iterations is the number of
// training iterations (each repeats the broadcast).
func SparkBroadcast(tb *testbed.Testbed, mode core.Mode, modelBits float64, iterations int) (Result, error) {
	if iterations < 1 || modelBits <= 0 {
		return Result{}, fmt.Errorf("apps: bad broadcast parameters")
	}
	if _, err := tb.Ctrl.Convert(mode); err != nil {
		return Result{}, err
	}
	n := len(tb.Ctrl.Realization().Topo.Servers())
	var reads []float64
	var phase float64
	for it := 0; it < iterations; it++ {
		have := []int{0} // master
		lack := make([]int, 0, n-1)
		for s := 1; s < n; s++ {
			lack = append(lack, s)
		}
		for len(lack) > 0 {
			// Pair each holder with one receiver this round.
			nPairs := len(have)
			if nPairs > len(lack) {
				nPairs = len(lack)
			}
			var flows [][3]float64
			for i := 0; i < nPairs; i++ {
				flows = append(flows, [3]float64{float64(have[i]), float64(lack[i]), modelBits})
			}
			fcts, err := runPhase(tb, flows)
			if err != nil {
				return Result{}, err
			}
			round := 0.0
			for _, f := range fcts {
				reads = append(reads, f+SerdeOverhead)
				if f > round {
					round = f
				}
			}
			have = append(have, lack[:nPairs]...)
			lack = lack[nPairs:]
			sort.Ints(have)
			phase += round + SerdeOverhead
		}
	}
	return Result{Mode: mode, ReadDuration: metrics.Mean(reads), PhaseDuration: phase}, nil
}

// HadoopShuffle models the Tez Sort shuffle: all worker nodes as mappers
// send their partitioned output to a subset of nodes acting as reducers
// (§5.4), all flows concurrent. bitsPerMapper is each mapper's total
// shuffle output, split evenly across reducers.
func HadoopShuffle(tb *testbed.Testbed, mode core.Mode, bitsPerMapper float64, reducers int) (Result, error) {
	if reducers < 1 || bitsPerMapper <= 0 {
		return Result{}, fmt.Errorf("apps: bad shuffle parameters")
	}
	if _, err := tb.Ctrl.Convert(mode); err != nil {
		return Result{}, err
	}
	n := len(tb.Ctrl.Realization().Topo.Servers())
	if reducers >= n {
		return Result{}, fmt.Errorf("apps: %d reducers for %d servers", reducers, n)
	}
	// Node 0 is the master; nodes 1..n-1 are workers. Reducers are spread
	// across the worker set (every (n-1)/reducers-th worker).
	var reducerIDs []int
	stride := (n - 1) / reducers
	if stride < 1 {
		stride = 1
	}
	for i := 1; i < n && len(reducerIDs) < reducers; i += stride {
		reducerIDs = append(reducerIDs, i)
	}
	perFlow := bitsPerMapper / float64(len(reducerIDs))
	var flows [][3]float64
	for m := 1; m < n; m++ {
		for _, r := range reducerIDs {
			if r == m {
				continue
			}
			flows = append(flows, [3]float64{float64(m), float64(r), perFlow})
		}
	}
	fcts, err := runPhase(tb, flows)
	if err != nil {
		return Result{}, err
	}
	reads := make([]float64, len(fcts))
	phase := 0.0
	for i, f := range fcts {
		reads[i] = f + SerdeOverhead
		if f > phase {
			phase = f
		}
	}
	return Result{Mode: mode, ReadDuration: metrics.Mean(reads), PhaseDuration: phase + SerdeOverhead}, nil
}

// CompareModes runs an application function across the three uniform
// topology modes, returning results keyed by mode.
func CompareModes(run func(core.Mode) (Result, error)) (map[core.Mode]Result, error) {
	out := make(map[core.Mode]Result, 3)
	for _, m := range []core.Mode{core.ModeGlobal, core.ModeLocal, core.ModeClos} {
		res, err := run(m)
		if err != nil {
			return nil, err
		}
		out[m] = res
	}
	return out, nil
}
