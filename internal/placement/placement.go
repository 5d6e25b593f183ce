// Package placement implements the workload-placement side of hybrid-mode
// operation (§2.1, §3.5, §5.2): "the network is organized into
// functionally separate zones each having a different topology. Clusters
// of different sizes can be placed into suitable zones to optimize their
// performance."
//
// A Plan partitions the pods into zones with modes and assigns tenants —
// clusters of servers with all-to-all internal traffic — to zones whose
// topology suits their locality: rack-sized tenants to Clos zones,
// pod-scale tenants to local zones, larger tenants to global zones.
package placement

import (
	"fmt"
	"sort"

	"flattree/internal/core"
	"flattree/internal/topo"
)

// Tenant is one workload: Size servers communicating all-to-all.
type Tenant struct {
	Name string
	Size int
}

// Zone is a run of consecutive pods sharing a mode.
type Zone struct {
	Mode core.Mode
	// Pods lists the pod indices (consecutive).
	Pods []int
}

// Assignment places one tenant onto concrete server indices.
type Assignment struct {
	Tenant  Tenant
	Zone    int // index into the plan's zones
	Servers []int
}

// Plan is a zoned layout with tenant assignments.
type Plan struct {
	Clos        topo.ClosParams
	Zones       []Zone
	Assignments []Assignment
}

// PreferredMode returns the topology mode §2.1's analysis prefers for a
// tenant of the given size on the layout: Clos when the tenant fits in a
// rack (rack-local traffic), local mode when it fits in a pod, global mode
// otherwise.
func PreferredMode(p topo.ClosParams, size int) core.Mode {
	switch {
	case size <= p.ServersPerEdge:
		return core.ModeClos
	case size <= p.EdgesPerPod*p.ServersPerEdge:
		return core.ModeLocal
	default:
		return core.ModeGlobal
	}
}

// Place builds a zoned plan for the tenants on the given layout. Zoning is
// derived from demand: pods are apportioned per mode by the server volume
// of tenants preferring that mode (each nonempty class gets at least one
// pod), then tenants are placed into their preferred zone first-fit,
// falling back to any zone with room. Tenants larger than the network are
// rejected.
func Place(p topo.ClosParams, tenants []Tenant) (*Plan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	perPod := p.EdgesPerPod * p.ServersPerEdge
	total := p.TotalServers()
	demand := map[core.Mode]int{}
	var totalDemand int
	for _, t := range tenants {
		if t.Size < 1 {
			return nil, fmt.Errorf("placement: tenant %q has size %d", t.Name, t.Size)
		}
		if t.Size > total {
			return nil, fmt.Errorf("placement: tenant %q (%d servers) exceeds the network (%d)",
				t.Name, t.Size, total)
		}
		demand[PreferredMode(p, t.Size)] += t.Size
		totalDemand += t.Size
	}
	if totalDemand > total {
		return nil, fmt.Errorf("placement: tenants need %d servers, network has %d", totalDemand, total)
	}

	// Apportion pods to modes by demand share (largest remainder, at
	// least one pod per nonempty class), defaulting leftovers to Clos.
	modes := []core.Mode{core.ModeClos, core.ModeLocal, core.ModeGlobal}
	podsFor := map[core.Mode]int{}
	assigned := 0
	for _, m := range modes {
		if demand[m] == 0 {
			continue
		}
		n := demand[m] * p.Pods / totalDemand
		if n < 1 {
			n = 1
		}
		// A tenant class must fit its zone.
		if need := (demand[m] + perPod - 1) / perPod; n < need {
			n = need
		}
		podsFor[m] = n
		assigned += n
	}
	if assigned > p.Pods {
		return nil, fmt.Errorf("placement: demand needs %d pods, network has %d", assigned, p.Pods)
	}
	// Leftover pods go to the largest class (or Clos when empty).
	leftover := p.Pods - assigned
	if leftover > 0 {
		best := core.ModeClos
		for _, m := range modes {
			if demand[m] > demand[best] {
				best = m
			}
		}
		podsFor[best] += leftover
	}

	plan := &Plan{Clos: p}
	pod := 0
	zoneOf := map[core.Mode]int{}
	for _, m := range modes {
		n := podsFor[m]
		if n == 0 {
			continue
		}
		var pods []int
		for i := 0; i < n; i++ {
			pods = append(pods, pod)
			pod++
		}
		zoneOf[m] = len(plan.Zones)
		plan.Zones = append(plan.Zones, Zone{Mode: m, Pods: pods})
	}

	// First-fit decreasing placement into preferred zones.
	order := make([]int, len(tenants))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return tenants[order[a]].Size > tenants[order[b]].Size })

	free := make([][]int, len(plan.Zones)) // free server indices per zone
	for zi, z := range plan.Zones {
		for _, pd := range z.Pods {
			for s := 0; s < perPod; s++ {
				free[zi] = append(free[zi], pd*perPod+s)
			}
		}
	}
	place := func(ti, zi int) bool {
		t := tenants[ti]
		if len(free[zi]) < t.Size {
			return false
		}
		plan.Assignments = append(plan.Assignments, Assignment{
			Tenant: t, Zone: zi, Servers: free[zi][:t.Size],
		})
		free[zi] = free[zi][t.Size:]
		return true
	}
	for _, ti := range order {
		pref, havePref := zoneOf[PreferredMode(p, tenants[ti].Size)]
		if havePref && place(ti, pref) {
			continue
		}
		placed := false
		for zi := range plan.Zones {
			if place(ti, zi) {
				placed = true
				break
			}
		}
		if !placed {
			return nil, fmt.Errorf("placement: no zone can host tenant %q (%d servers)",
				tenants[ti].Name, tenants[ti].Size)
		}
	}
	// Restore input order for stable output.
	sort.SliceStable(plan.Assignments, func(a, b int) bool {
		return tenantIndex(tenants, plan.Assignments[a].Tenant.Name) <
			tenantIndex(tenants, plan.Assignments[b].Tenant.Name)
	})
	return plan, nil
}

func tenantIndex(tenants []Tenant, name string) int {
	for i, t := range tenants {
		if t.Name == name {
			return i
		}
	}
	return len(tenants)
}

// PodModes returns the per-pod mode vector the plan requires, suitable for
// Network.ConvertPods / Controller.ConvertPods.
func (pl *Plan) PodModes() []core.Mode {
	modes := make([]core.Mode, pl.Clos.Pods)
	for i := range modes {
		modes[i] = core.ModeClos // unzoned pods default to Clos
	}
	for _, z := range pl.Zones {
		for _, p := range z.Pods {
			modes[p] = z.Mode
		}
	}
	return modes
}
