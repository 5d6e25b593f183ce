package placement

import (
	"sort"
	"testing"

	"flattree/internal/core"
	"flattree/internal/topo"
)

// layout: 4 pods, 8 servers per rack, 32 per pod, 128 total.
func layout() topo.ClosParams {
	return topo.ClosParams{Name: "pl", Pods: 4, EdgesPerPod: 4, AggsPerPod: 4,
		ServersPerEdge: 8, EdgeUplinks: 4, AggUplinks: 4, Cores: 16}
}

func TestPreferredMode(t *testing.T) {
	p := layout()
	for _, c := range []struct {
		size int
		want core.Mode
	}{
		{1, core.ModeClos}, {8, core.ModeClos},
		{9, core.ModeLocal}, {32, core.ModeLocal},
		{33, core.ModeGlobal}, {128, core.ModeGlobal},
	} {
		if got := PreferredMode(p, c.size); got != c.want {
			t.Errorf("PreferredMode(%d) = %v, want %v", c.size, got, c.want)
		}
	}
}

func TestPlaceMixedTenants(t *testing.T) {
	p := layout()
	tenants := []Tenant{
		{Name: "web-a", Size: 6},      // rack-sized -> Clos
		{Name: "web-b", Size: 8},      // rack-sized -> Clos
		{Name: "analytics", Size: 24}, // pod-sized -> local
		{Name: "ml-train", Size: 48},  // network-scale -> global
	}
	plan, err := Place(p, tenants)
	if err != nil {
		t.Fatal(err)
	}
	// Every tenant assigned, disjointly, inside its zone's pods.
	used := map[int]string{}
	for _, a := range plan.Assignments {
		if len(a.Servers) != a.Tenant.Size {
			t.Fatalf("%s: got %d servers, want %d", a.Tenant.Name, len(a.Servers), a.Tenant.Size)
		}
		zone := plan.Zones[a.Zone]
		podSet := map[int]bool{}
		for _, pd := range zone.Pods {
			podSet[pd] = true
		}
		for _, s := range a.Servers {
			if prev, clash := used[s]; clash {
				t.Fatalf("server %d assigned to both %s and %s", s, prev, a.Tenant.Name)
			}
			used[s] = a.Tenant.Name
			if !podSet[s/32] {
				t.Fatalf("%s: server %d outside its zone pods %v", a.Tenant.Name, s, zone.Pods)
			}
		}
	}
	// Preferred zones honored.
	for _, a := range plan.Assignments {
		want := PreferredMode(p, a.Tenant.Size)
		if got := plan.Zones[a.Zone].Mode; got != want {
			t.Errorf("%s placed in %v zone, want %v", a.Tenant.Name, got, want)
		}
	}
	// Pod modes cover all pods and include all three modes here.
	modes := plan.PodModes()
	if len(modes) != 4 {
		t.Fatalf("pod modes = %v", modes)
	}
	seen := map[core.Mode]bool{}
	for _, m := range modes {
		seen[m] = true
	}
	if len(seen) != 3 {
		t.Fatalf("expected all three modes in zoning, got %v", modes)
	}
}

func TestPlaceAppliesToNetwork(t *testing.T) {
	p := layout()
	plan, err := Place(p, []Tenant{{Name: "a", Size: 8}, {Name: "b", Size: 60}})
	if err != nil {
		t.Fatal(err)
	}
	nw, err := core.New(p, core.Options{N: 1, M: 2})
	if err != nil {
		t.Fatal(err)
	}
	for pod, m := range plan.PodModes() {
		if err := nw.SetPodMode(pod, m); err != nil {
			t.Fatal(err)
		}
	}
	r := nw.Realize()
	if err := r.Topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(plan.Assignments) != 2 {
		t.Fatalf("%d assignments, want 2", len(plan.Assignments))
	}
	for _, a := range plan.Assignments {
		if a.Zone < 0 || a.Zone >= len(plan.Zones) {
			t.Fatalf("tenant %s in zone %d of %d", a.Tenant.Name, a.Zone, len(plan.Zones))
		}
	}
}

func TestPlaceFallsBackWhenPreferredFull(t *testing.T) {
	p := layout()
	// Clos demand of 3 rack tenants = 24 servers -> Clos zone sized ~1
	// pod (32 slots); a fourth rack tenant overflows into another zone
	// rather than failing.
	tenants := []Tenant{
		{Name: "r1", Size: 8}, {Name: "r2", Size: 8}, {Name: "r3", Size: 8}, {Name: "r4", Size: 8},
		{Name: "g", Size: 90},
	}
	plan, err := Place(p, tenants)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Assignments) != 5 {
		t.Fatalf("assignments = %d", len(plan.Assignments))
	}
}

func TestPlaceValidation(t *testing.T) {
	p := layout()
	if _, err := Place(p, []Tenant{{Name: "x", Size: 0}}); err == nil {
		t.Fatal("zero-size tenant accepted")
	}
	if _, err := Place(p, []Tenant{{Name: "x", Size: 1000}}); err == nil {
		t.Fatal("oversized tenant accepted")
	}
	if _, err := Place(p, []Tenant{{Name: "a", Size: 128}, {Name: "b", Size: 1}}); err == nil {
		t.Fatal("overcommitted tenants accepted")
	}
}

func TestSampleTenantsStatistics(t *testing.T) {
	tenants, err := SampleTenants(1500, 1487, 42)
	if err != nil {
		t.Fatal(err)
	}
	var sum, max int
	sizes := make([]int, 0, len(tenants))
	for _, tn := range tenants {
		if tn.Size < 1 || tn.Size > 1487 {
			t.Fatalf("size %d out of range", tn.Size)
		}
		sum += tn.Size
		if tn.Size > max {
			max = tn.Size
		}
		sizes = append(sizes, tn.Size)
	}
	mean := float64(sum) / float64(len(tenants))
	// §2.1: mean 79 VMs, largest 1487. Allow sampling noise.
	if mean < 50 || mean > 110 {
		t.Fatalf("mean tenant size %.1f, want ~79", mean)
	}
	if max < 1000 {
		t.Fatalf("largest tenant %d, want a heavy tail near 1487", max)
	}
	// Heavy tail: the median sits well below the mean.
	sort.Ints(sizes)
	median := float64(sizes[len(sizes)/2])
	if median > mean*0.7 {
		t.Fatalf("median %.0f vs mean %.1f: not heavy-tailed", median, mean)
	}
}

func TestSampleAndPlace(t *testing.T) {
	p := layout() // 128 servers
	tenants, err := SampleTenants(40, p.EdgesPerPod*p.ServersPerEdge*2, 7)
	if err != nil {
		t.Fatal(err)
	}
	fitted := FitTenants(tenants, p.TotalServers(), 0.8)
	if len(fitted) == 0 {
		t.Fatal("no tenants fitted")
	}
	plan, err := Place(p, fitted)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Assignments) != len(fitted) {
		t.Fatalf("placed %d of %d tenants", len(plan.Assignments), len(fitted))
	}
}

func TestSampleTenantsValidation(t *testing.T) {
	if _, err := SampleTenants(0, 10, 1); err == nil {
		t.Fatal("zero tenants accepted")
	}
	if _, err := SampleTenants(5, 0, 1); err == nil {
		t.Fatal("zero max size accepted")
	}
}
