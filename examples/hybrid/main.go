// Hybrid: the paper's zoned operation (§3.5, §5.2) — a multi-tenant
// network where a rack-local tenant lives in a Clos zone while a
// network-wide tenant lives in a global zone, each getting the topology
// that suits its traffic. The example measures both tenants' throughput
// with zones matched and mismatched.
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

func main() {
	clos := flattree.ClosParams{
		Name: "hybrid", Pods: 4, EdgesPerPod: 4, AggsPerPod: 4,
		ServersPerEdge: 8, EdgeUplinks: 4, AggUplinks: 4, Cores: 16,
	}
	nw, err := flattree.NewNetwork(clos, flattree.Options{N: 1, M: 3})
	if err != nil {
		log.Fatal(err)
	}
	perPod := clos.EdgesPerPod * clos.ServersPerEdge

	// Tenant A: rack-local all-to-all clusters inside pods 0-1.
	var tenantA []traffic.Pair
	for _, p := range traffic.ClusteredAllToAll(2*perPod, clos.ServersPerEdge) {
		tenantA = append(tenantA, p)
	}
	// Tenant B: uniform all-to-all across pods 2-3.
	var tenantB []traffic.Pair
	for _, p := range traffic.Permutation(2*perPod, 99) {
		tenantB = append(tenantB, traffic.Pair{Src: p.Src + 2*perPod, Dst: p.Dst + 2*perPod})
	}

	tbl := &metrics.Table{Header: []string{"zoning", "tenant A avg (Gbps)", "tenant B avg (Gbps)"}}
	for _, z := range []struct {
		name  string
		modes []flattree.Mode
	}{
		{"matched: A in Clos zone, B in global zone",
			[]flattree.Mode{flattree.ModeClos, flattree.ModeClos, flattree.ModeGlobal, flattree.ModeGlobal}},
		{"uniform Clos everywhere",
			[]flattree.Mode{flattree.ModeClos, flattree.ModeClos, flattree.ModeClos, flattree.ModeClos}},
		{"mismatched: A in global zone, B in Clos zone",
			[]flattree.Mode{flattree.ModeGlobal, flattree.ModeGlobal, flattree.ModeClos, flattree.ModeClos}},
	} {
		if _, err := nw.ConvertPods(z.modes); err != nil {
			log.Fatal(err)
		}
		a, err := throughput(nw, tenantA)
		if err != nil {
			log.Fatal(err)
		}
		b, err := throughput(nw, tenantB)
		if err != nil {
			log.Fatal(err)
		}
		tbl.Add(z.name, a, b)
	}
	fmt.Println("hybrid-mode tenant placement (tenant A: rack-local; tenant B: uniform):")
	fmt.Print(tbl.String())
}

// throughput computes the mean steady-state MPTCP rate of the tenant's
// flows (both tenants active simultaneously would couple them; each is
// measured alone for clarity).
func throughput(nw *flattree.Network, pairs []traffic.Pair) (float64, error) {
	t := nw.Topology()
	table := nw.Routes()
	servers := t.Servers()
	specs := make([]flowsim.ConnSpec, 0, len(pairs))
	for _, pr := range pairs {
		dp := table.ServerSlots(servers[pr.Src], servers[pr.Dst])
		specs = append(specs, flowsim.ConnSpec{Paths: dp, Bits: math.Inf(1)})
	}
	rates, err := flowsim.StaticRates(routing.DirectedCaps(t.G), specs, 10)
	if err != nil {
		return 0, err
	}
	return metrics.Mean(rates), nil
}
