// Trafficstudy: a miniature of the paper's §5.2 experiment — replay a
// pod-local "cache"-style trace on flat-tree in global, local, and Clos
// modes and compare flow completion times, demonstrating that the right
// topology depends on the workload's locality.
package main

import (
	"fmt"
	"log"
	"math"

	"flattree"
	"flattree/internal/flowsim"
	"flattree/internal/metrics"
	"flattree/internal/routing"
	"flattree/internal/traffic"
)

const k = 8 // concurrent paths for MPTCP

func main() {
	clos := flattree.ClosParams{
		Name: "study", Pods: 4, EdgesPerPod: 4, AggsPerPod: 4,
		ServersPerEdge: 8, EdgeUplinks: 4, AggUplinks: 4, Cores: 16,
	}
	nw, err := flattree.NewNetworkK(clos, flattree.Options{N: 1, M: 3},
		map[flattree.Mode]int{flattree.ModeClos: k, flattree.ModeLocal: k, flattree.ModeGlobal: k})
	if err != nil {
		log.Fatal(err)
	}

	// A pod-local workload (88% intra-pod as in Facebook's cache tier).
	spec, err := traffic.FacebookSpec("cache", clos.TotalServers(), clos.ServersPerEdge,
		clos.EdgesPerPod, 1200, 42)
	if err != nil {
		log.Fatal(err)
	}
	spec.Duration = 2.0
	spec.SizeMedianGbit *= 40 // saturate 10G links at this reduced scale
	flows, err := traffic.Generate(spec)
	if err != nil {
		log.Fatal(err)
	}

	tbl := &metrics.Table{Header: []string{"mode", "median FCT (ms)", "p99 FCT (ms)", "mean (ms)"}}
	for _, mode := range []flattree.Mode{flattree.ModeGlobal, flattree.ModeLocal, flattree.ModeClos} {
		if _, err := nw.Convert(mode); err != nil {
			log.Fatal(err)
		}
		fcts, err := replay(nw, flows)
		if err != nil {
			log.Fatal(err)
		}
		tbl.Add(mode.String(),
			metrics.Percentile(fcts, 0.5), metrics.Percentile(fcts, 0.99), metrics.Mean(fcts))
	}
	fmt.Println("cache-style trace (88% intra-pod), 1200 flows, MPTCP k=8:")
	fmt.Print(tbl.String())
	fmt.Println("\nexpected shape (paper Fig. 8d): local best, then global, then Clos")
}

// replay runs the trace as MPTCP connections on the network's current
// topology and returns per-flow completion times in milliseconds.
func replay(nw *flattree.Network, flows []traffic.Flow) ([]float64, error) {
	t := nw.Topology()
	table := nw.Routes()
	servers := t.Servers()
	caps := routing.DirectedCaps(t.G)
	specs := make([]flowsim.ConnSpec, 0, len(flows))
	for _, f := range flows {
		dp := table.ServerSlots(servers[f.Src], servers[f.Dst])
		specs = append(specs, flowsim.ConnSpec{Paths: dp, Bits: f.Bits, Arrival: f.Arrival})
	}
	results, err := flowsim.NewSim(caps, specs).Run()
	if err != nil {
		return nil, err
	}
	fcts := make([]float64, 0, len(results))
	for _, r := range results {
		if !math.IsInf(r.Finish, 1) {
			fcts = append(fcts, r.FCT()*1000)
		}
	}
	return fcts, nil
}
