package core

import (
	"testing"

	"flattree/internal/graph"
)

func TestCrossConnectsAreValidMatchings(t *testing.T) {
	cases := []struct {
		kind ConverterKind
		cfgs []Config
	}{
		{FourPort, []Config{ConfigDefault, ConfigLocal}},
		{SixPort, []Config{ConfigDefault, ConfigLocal, ConfigSide, ConfigCross}},
	}
	for _, c := range cases {
		for _, cfg := range c.cfgs {
			xcs, err := CrossConnects(c.kind, cfg)
			if err != nil {
				t.Fatalf("%v %v: %v", c.kind, cfg, err)
			}
			if err := ValidateMatching(c.kind, xcs); err != nil {
				t.Errorf("%v %v: %v", c.kind, cfg, err)
			}
		}
	}
}

func TestCrossConnectsRejectInvalid(t *testing.T) {
	if _, err := CrossConnects(FourPort, ConfigSide); err == nil {
		t.Fatal("4-port side configuration accepted")
	}
	if _, err := CrossConnects(FourPort, ConfigCross); err == nil {
		t.Fatal("4-port cross configuration accepted")
	}
	if _, err := CrossConnects(ConverterKind(9), ConfigDefault); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestValidateMatchingRejections(t *testing.T) {
	if err := ValidateMatching(FourPort, []CrossConnect{{PortSide1, PortServer}}); err == nil {
		t.Fatal("side port on 4-port converter accepted")
	}
	if err := ValidateMatching(SixPort, []CrossConnect{{PortServer, PortServer}}); err == nil {
		t.Fatal("self-circuit accepted")
	}
	if err := ValidateMatching(SixPort, []CrossConnect{
		{PortServer, PortEdge}, {PortServer, PortCore},
	}); err == nil {
		t.Fatal("double-used port accepted")
	}
}

// TestMatchingMatchesRealization verifies the crosspoint model against the
// realization logic: the endpoint links a default/local matching implies
// are exactly the links Realize emits for the same configuration.
func TestMatchingMatchesRealization(t *testing.T) {
	nw, err := ExampleNetwork()
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeClos, ModeLocal} {
		nw.SetMode(mode)
		r := nw.Realize()
		for _, cv := range nw.Converters() {
			xcs, err := CrossConnects(cv.Kind, cv.Config)
			if err != nil {
				t.Fatal(err)
			}
			// Attachments of this converter's ports.
			edge := r.EdgeID[cv.Pod][cv.EdgeCol]
			agg := r.AggID[cv.Pod][cv.EdgeCol/nw.Clos().R()]
			slot := cv.Row
			coreIdx := nw.Options().M + cv.Row
			if cv.Kind == SixPort {
				slot = nw.Options().N + cv.Row
				coreIdx = cv.Row
			}
			server := r.ServerID[cv.Pod][cv.EdgeCol][slot]
			coreSw := r.CoreID[nw.CoreFor(cv.Pod, cv.EdgeCol, coreIdx)]
			attach := map[Port]int{
				PortServer: server, PortEdge: edge, PortAgg: agg, PortCore: coreSw,
			}
			for _, ep := range EndpointLinks(xcs, attach) {
				// The server-side circuit must match the recorded
				// attachment; the switch-side circuit must exist as a link.
				if ep[0] == server || ep[1] == server {
					other := ep[0] + ep[1] - server
					if got := r.Topo.AttachedSwitch(server); got != other {
						t.Fatalf("converter %+v: matching says server on %d, realization says %d",
							cv, other, got)
					}
					continue
				}
				if !linked(r.Topo.G, ep[0], ep[1]) {
					t.Fatalf("converter %+v: matching link %v absent from realization", cv, ep)
				}
			}
		}
	}
}

func TestEndpointLinksSkipsUnattached(t *testing.T) {
	xcs, _ := CrossConnects(SixPort, ConfigSide)
	attach := map[Port]int{PortServer: 1, PortCore: 2} // side/edge/agg unattached
	links := EndpointLinks(xcs, attach)
	if len(links) != 1 || links[0] != [2]int{1, 2} {
		t.Fatalf("links = %v, want [[1 2]]", links)
	}
}

func TestPortString(t *testing.T) {
	if PortServer.String() != "server" || PortSide2.String() != "side2" {
		t.Fatal("port names wrong")
	}
	if Port(99).String() == "" {
		t.Fatal("out-of-range port name empty")
	}
}

// linked reports whether at least one link directly connects a and b.
func linked(g *graph.Graph, a, b int) bool {
	for _, id := range g.Incident(a) {
		if g.Link(id).Other(a) == b {
			return true
		}
	}
	return false
}

// EndpointLinks translates a converter's circuit matching into the
// endpoint pairs it realizes, given the physical attachments of its ports.
// attach maps each port to a node ID (use -1 for unattached side ports at
// linear boundaries); circuits touching an unattached port realize no
// link.
func EndpointLinks(xcs []CrossConnect, attach map[Port]int) [][2]int {
	var out [][2]int
	for _, xc := range xcs {
		a, okA := attach[xc.A]
		b, okB := attach[xc.B]
		if !okA || !okB || a < 0 || b < 0 {
			continue
		}
		out = append(out, [2]int{a, b})
	}
	return out
}
