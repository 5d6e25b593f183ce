package experiments

import (
	"fmt"
	"math"
	"sort"

	"flattree/internal/core"
	"flattree/internal/flowsim"
	"flattree/internal/metrics"
	"flattree/internal/placement"
	"flattree/internal/routing"
	"flattree/internal/topo"
)

// The hybrid-placement experiment demonstrates §3.5/§5.2's operating
// model: a multi-tenant network where each tenant's cluster is placed in
// a zone whose topology suits its size, compared against running the
// whole network in each uniform mode with the same tenants packed
// consecutively. All tenants are active concurrently with intra-tenant
// permutation traffic (every server one full-rate flow to another tenant
// member, MPTCP k=8) — the fabric-stressing pattern of §5.1 confined to
// each tenant — so zones compete for fabric like real neighbors.

// HybridPlaceRow reports one configuration's per-tenant and aggregate
// throughput.
type HybridPlaceRow struct {
	Config string
	// PerTenant maps tenant name to mean flow throughput (Gbps).
	PerTenant map[string]float64
	// Aggregate is the total throughput across all tenant flows.
	Aggregate float64
}

// HybridPlacement runs the comparison on the reduced topo-1 layout.
func (c Config) HybridPlacement() ([]HybridPlaceRow, error) {
	// mini-3 (4:1 oversubscribed at the edge, like topo-3) makes the
	// fabric the binding resource, so zone choice visibly matters; the
	// full scale uses topo-3 for the same reason.
	name := "mini-3"
	if c.Full {
		name = "topo-3"
	}
	p, err := c.paramsByName(name)
	if err != nil {
		return nil, err
	}
	perPod := p.EdgesPerPod * p.ServersPerEdge
	// Mixed tenants: two rack-sized, one pod-sized, one network-scale,
	// sized to ~85% occupancy.
	tenants := []placement.Tenant{
		{Name: "web-1", Size: p.ServersPerEdge},
		{Name: "web-2", Size: p.ServersPerEdge},
		{Name: "analytics", Size: perPod * 3 / 4},
		{Name: "ml-train", Size: perPod * 2},
	}

	plan, err := placement.Place(p, tenants)
	if err != nil {
		return nil, err
	}

	var rows []HybridPlaceRow

	// Hybrid: zones per the plan, tenants at their planned servers.
	hybridServers := map[string][]int{}
	for _, a := range plan.Assignments {
		hybridServers[a.Tenant.Name] = a.Servers
	}
	row, err := c.hybridMeasure(p, "hybrid (planned zones)", plan.PodModes(), tenants, hybridServers)
	if err != nil {
		return nil, err
	}
	rows = append(rows, *row)

	// Uniform baselines: tenants packed consecutively from server 0.
	packed := map[string][]int{}
	next := 0
	for _, t := range tenants {
		var sv []int
		for i := 0; i < t.Size; i++ {
			sv = append(sv, next)
			next++
		}
		packed[t.Name] = sv
	}
	for _, m := range []core.Mode{core.ModeClos, core.ModeLocal, core.ModeGlobal} {
		modes := make([]core.Mode, p.Pods)
		for i := range modes {
			modes[i] = m
		}
		row, err := c.hybridMeasure(p, "uniform "+m.String(), modes, tenants, packed)
		if err != nil {
			return nil, err
		}
		rows = append(rows, *row)
	}
	return rows, nil
}

// hybridMeasure realizes the pod modes and measures concurrent all-to-all
// throughput per tenant.
func (c Config) hybridMeasure(p topo.ClosParams, label string, modes []core.Mode,
	tenants []placement.Tenant, serversOf map[string][]int) (*HybridPlaceRow, error) {
	nw, err := core.New(p, flatTreeOptions(p))
	if err != nil {
		return nil, err
	}
	for pod, m := range modes {
		if err := nw.SetPodMode(pod, m); err != nil {
			return nil, err
		}
	}
	r := nw.Realize()
	table := routing.BuildKShortest(r.Topo, 8)
	servers := r.Topo.Servers()

	var specs []flowsim.ConnSpec
	owner := make([]string, 0) // tenant of each conn
	for _, t := range tenants {
		ids := serversOf[t.Name]
		if len(ids) != t.Size {
			return nil, fmt.Errorf("experiments: tenant %s has %d servers, want %d", t.Name, len(ids), t.Size)
		}
		// Intra-tenant permutation: server i sends to the tenant member
		// halfway around its cluster (a stride derangement).
		stride := len(ids) / 2
		if stride == 0 {
			stride = 1
		}
		for i := range ids {
			j := (i + stride) % len(ids)
			if j == i {
				continue
			}
			dp := table.ServerSlots(servers[ids[i]], servers[ids[j]])
			specs = append(specs, flowsim.ConnSpec{Paths: dp, Bits: math.Inf(1)})
			owner = append(owner, t.Name)
		}
	}
	rates, err := flowsim.StaticRates(routing.DirectedCaps(r.Topo.G), specs, topo.DefaultLinkCapacity)
	if err != nil {
		return nil, err
	}
	row := &HybridPlaceRow{Config: label, PerTenant: map[string]float64{}}
	count := map[string]int{}
	for i, rate := range rates {
		row.PerTenant[owner[i]] += rate
		count[owner[i]]++
		row.Aggregate += rate
	}
	//flatvet:ordered in-place per-key normalization; keys do not interact
	for name, sum := range row.PerTenant {
		row.PerTenant[name] = sum / float64(count[name])
	}
	return row, nil
}

// RenderHybridPlacement formats the comparison.
func RenderHybridPlacement(rows []HybridPlaceRow) string {
	if len(rows) == 0 {
		return ""
	}
	var names []string
	for n := range rows[0].PerTenant {
		names = append(names, n)
	}
	// Stable order: by name.
	sort.Strings(names)
	header := []string{"configuration"}
	for _, n := range names {
		header = append(header, n+" avg (Gbps)")
	}
	header = append(header, "aggregate (Gbps)")
	t := &metrics.Table{Header: header}
	for _, r := range rows {
		cells := []interface{}{r.Config}
		for _, n := range names {
			cells = append(cells, r.PerTenant[n])
		}
		cells = append(cells, r.Aggregate)
		t.Add(cells...)
	}
	return t.String()
}
