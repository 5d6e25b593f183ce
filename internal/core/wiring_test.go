package core

import (
	"fmt"
	"sort"
	"testing"

	"flattree/internal/topo"
)

// Wiring manifests (§3.2–3.3): the deployment-time cable schedule.
// "Physically, we suggest wiring Pod 0 first, by linking every m blade B
// connectors, n blade A connectors, and h/r−m−n aggregation connectors in
// turn to core switches consecutively ... For the following Pods,
// connectors corresponding to each edge switch are connected to the marked
// h/r core switches according to the rotating patterns."
//
// The manifest enumerates every permanent cable of the flat-tree build —
// the wiring an installer would actually pull. Converter-internal circuits
// are excluded: those are programmed, not cabled. No binary prints the
// manifest, so it lives beside the tests that check the §2.2/§3.1
// packaging claim and the §3.2 installation order against it.

// CableClass distinguishes the permanent cable types of a flat-tree build.
type CableClass int

const (
	// CableEdgeAgg is a pod-internal edge-to-aggregation cable.
	CableEdgeAgg CableClass = iota
	// CableServer connects a server NIC to its converter's server port
	// (or directly to the edge switch for non-relocatable slots).
	CableServer
	// CableBladeACore runs from a blade A (4-port) converter's core port
	// to a core switch.
	CableBladeACore
	// CableBladeBCore runs from a blade B (6-port) converter's core port
	// to a core switch.
	CableBladeBCore
	// CableAggCore is a direct aggregation-to-core cable (the connectors
	// converters do not intercept).
	CableAggCore
	// CableSideBundle is one multi-link side bundle between adjacent
	// pods' blade B columns (§3.3: "the side connectors on the same side
	// of a Pod are bundled as a multi-link connector").
	CableSideBundle
)

var cableNames = [...]string{
	"edge-agg", "server", "bladeA-core", "bladeB-core", "agg-core", "side-bundle",
}

func (c CableClass) String() string {
	if c < 0 || int(c) >= len(cableNames) {
		return fmt.Sprintf("CableClass(%d)", int(c))
	}
	return cableNames[c]
}

// Cable is one physical cable (or bundle) of the build.
type Cable struct {
	Class CableClass
	// Pod is the owning pod (the lower-indexed pod for side bundles).
	Pod int
	// A and B describe the endpoints for humans/installers.
	A, B string
}

// WiringManifest enumerates every permanent cable of the flat-tree build,
// in installation order: pod internals first (pod by pod), then pod-core
// trunks, then inter-pod side bundles.
func (nw *Network) WiringManifest() []Cable {
	cp := nw.clos
	g := nw.CoreGroupSize()
	n, m := nw.opt.N, nw.opt.M
	var cables []Cable

	for pod := 0; pod < cp.Pods; pod++ {
		// Pod-internal edge-agg mesh.
		for j := 0; j < cp.EdgesPerPod; j++ {
			for i := 0; i < cp.AggsPerPod; i++ {
				for k := 0; k < cp.EdgeAggMultiplicity(); k++ {
					cables = append(cables, Cable{
						Class: CableEdgeAgg, Pod: pod,
						A: fmt.Sprintf("pod%d/E%d", pod, j),
						B: fmt.Sprintf("pod%d/A%d", pod, i),
					})
				}
			}
		}
		// Server cables: converter-attached first, then direct.
		for j := 0; j < cp.EdgesPerPod; j++ {
			for s := 0; s < cp.ServersPerEdge; s++ {
				var to string
				switch {
				case s < n:
					to = fmt.Sprintf("pod%d/bladeA[%d,%d]/server-port", pod, s, j)
				case s < n+m:
					to = fmt.Sprintf("pod%d/bladeB[%d,%d]/server-port", pod, s-n, j)
				default:
					to = fmt.Sprintf("pod%d/E%d", pod, j)
				}
				cables = append(cables, Cable{
					Class: CableServer, Pod: pod,
					A: fmt.Sprintf("pod%d/server[%d,%d]", pod, j, s),
					B: to,
				})
			}
		}
	}

	// Pod-core trunks, in the §3.2 installation order: for each pod, each
	// edge column, blade B connectors, blade A connectors, then direct
	// aggregation connectors, each to its pattern-determined core switch.
	for pod := 0; pod < cp.Pods; pod++ {
		for j := 0; j < cp.EdgesPerPod; j++ {
			for idx := 0; idx < g; idx++ {
				coreSw := nw.CoreFor(pod, j, idx)
				var from string
				var class CableClass
				switch {
				case idx < m:
					from = fmt.Sprintf("pod%d/bladeB[%d,%d]/core-port", pod, idx, j)
					class = CableBladeBCore
				case idx < m+n:
					from = fmt.Sprintf("pod%d/bladeA[%d,%d]/core-port", pod, idx-m, j)
					class = CableBladeACore
				default:
					from = fmt.Sprintf("pod%d/A%d/uplink%d", pod, j/cp.R(), idx)
					class = CableAggCore
				}
				cables = append(cables, Cable{
					Class: class, Pod: pod,
					A: from, B: fmt.Sprintf("core/C%d", coreSw),
				})
			}
		}
	}

	// Inter-pod side bundles: one bundle per adjacent pod pair and blade
	// side, carrying m x d/2 x 2 fibers each, integrating the §3.3
	// shifted pairing internally.
	if m > 0 {
		for pod := 0; pod < cp.Pods; pod++ {
			next := nw.rightPartnerPod(pod)
			if next < 0 {
				continue
			}
			cables = append(cables, Cable{
				Class: CableSideBundle, Pod: pod,
				A: fmt.Sprintf("pod%d/right-blade-B/bundle", pod),
				B: fmt.Sprintf("pod%d/left-blade-B/bundle", next),
			})
		}
	}
	return cables
}

// CableCounts tallies the manifest by class.
func CableCounts(cables []Cable) map[CableClass]int {
	out := map[CableClass]int{}
	for _, c := range cables {
		out[c.Class]++
	}
	return out
}

// ExternalConnectorParity verifies the §2.2/§3.1 packaging claim:
// "Converter switches and the additional wiring are packaged in the Pod,
// keeping the same core connectors as a Clos Pod" — the number of
// pod-to-core cables and server cables must equal the Clos counterpart's.
func (nw *Network) ExternalConnectorParity() error {
	cp := nw.clos
	counts := CableCounts(nw.WiringManifest())
	coreCables := counts[CableBladeACore] + counts[CableBladeBCore] + counts[CableAggCore]
	wantCore := cp.Pods * cp.AggsPerPod * cp.AggUplinks
	if coreCables != wantCore {
		return fmt.Errorf("core: %d pod-core cables, Clos counterpart has %d", coreCables, wantCore)
	}
	if counts[CableServer] != cp.TotalServers() {
		return fmt.Errorf("core: %d server cables for %d servers", counts[CableServer], cp.TotalServers())
	}
	if counts[CableEdgeAgg] != cp.Pods*cp.EdgesPerPod*cp.AggsPerPod*cp.EdgeAggMultiplicity() {
		return fmt.Errorf("core: edge-agg cable count mismatch")
	}
	return nil
}

// CoreGroupFor returns the sorted core switches edge column j's connectors
// reach (the "marked" group of §3.2's installation procedure).
func (nw *Network) CoreGroupFor(edgeCol int) []int {
	g := nw.CoreGroupSize()
	seen := map[int]bool{}
	for pod := 0; pod < nw.clos.Pods; pod++ {
		for idx := 0; idx < g; idx++ {
			seen[nw.CoreFor(pod, edgeCol, idx)] = true
		}
	}
	out := make([]int, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

func TestWiringManifestParity(t *testing.T) {
	// The packaging claim (§2.2/§3.1): flat-tree pods expose the same
	// external connectors as their Clos counterparts.
	nw, err := ExampleNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.ExternalConnectorParity(); err != nil {
		t.Fatal(err)
	}
	for _, p := range topo.Table2() {
		nw, err := New(p, Options{N: 1, M: 2})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if err := nw.ExternalConnectorParity(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestWiringManifestCounts(t *testing.T) {
	nw, err := ExampleNetwork()
	if err != nil {
		t.Fatal(err)
	}
	counts := CableCounts(nw.WiringManifest())
	// Example: 4 pods x 2 edges x 2 aggs x mult 1 = 16 edge-agg cables.
	if counts[CableEdgeAgg] != 16 {
		t.Fatalf("edge-agg cables = %d, want 16", counts[CableEdgeAgg])
	}
	if counts[CableServer] != 24 {
		t.Fatalf("server cables = %d, want 24", counts[CableServer])
	}
	// Per pod: 2 edges x g=2 connectors = 4 core cables; m=1 blade B and
	// n=1 blade A per column, no direct agg connectors (g-m-n = 0).
	if counts[CableBladeBCore] != 8 || counts[CableBladeACore] != 8 {
		t.Fatalf("blade core cables = %d/%d, want 8/8",
			counts[CableBladeBCore], counts[CableBladeACore])
	}
	if counts[CableAggCore] != 0 {
		t.Fatalf("agg-core cables = %d, want 0", counts[CableAggCore])
	}
	// Ring of 4 pods: one side bundle per adjacency.
	if counts[CableSideBundle] != 4 {
		t.Fatalf("side bundles = %d, want 4", counts[CableSideBundle])
	}
}

func TestWiringManifestMatchesCoreFor(t *testing.T) {
	// Every pod-core cable in the manifest must name the core switch
	// CoreFor computes; cross-check a topo-1-shaped build.
	p, err := topo.Table2ByName("topo-2")
	if err != nil {
		t.Fatal(err)
	}
	nw, err := New(p, Options{N: 1, M: 2})
	if err != nil {
		t.Fatal(err)
	}
	groups := map[int][]int{}
	for j := 0; j < p.EdgesPerPod; j++ {
		groups[j] = nw.CoreGroupFor(j)
		// Each edge column reaches exactly g distinct cores (groups do
		// not wrap for topo-2: d*g == Cores).
		if len(groups[j]) != nw.CoreGroupSize() {
			t.Fatalf("edge %d group size %d, want %d", j, len(groups[j]), nw.CoreGroupSize())
		}
	}
	// Groups are disjoint and cover all cores when d*g == Cores.
	seen := map[int]bool{}
	for _, grp := range groups {
		for _, c := range grp {
			if seen[c] {
				t.Fatalf("core %d in two groups", c)
			}
			seen[c] = true
		}
	}
	if len(seen) != p.Cores {
		t.Fatalf("groups cover %d cores, want %d", len(seen), p.Cores)
	}
}

func TestCableClassString(t *testing.T) {
	if CableSideBundle.String() != "side-bundle" || CableServer.String() != "server" {
		t.Fatal("cable class names wrong")
	}
	if CableClass(99).String() == "" {
		t.Fatal("out-of-range class name empty")
	}
}
