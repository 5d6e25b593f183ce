package addressing

import (
	"fmt"
	"testing"

	"flattree/internal/core"
	"flattree/internal/graph"
	"flattree/internal/routing"
	"flattree/internal/topo"
)

// Segment routing (§4.2.2, first option): where the fabric supports MPLS,
// the Path Computation Element encodes a route as a label stack pushed at
// the ingress switch. Transit switches pop the top label and forward on
// the port it names — per-route state exists only at the ingress. No
// binary forwards by labels, so the model of that data plane lives here,
// beside the tests that check it; the MAC/TTL encoding in
// sourceroute_test.go is the OpenFlow fallback for fabrics without MPLS.

// Label is one MPLS label: the output port at the switch that pops it.
type Label uint32

// MaxLabelDepth bounds the stack depth; flat-tree paths are short (the
// network diameter is small), and real MPLS hardware typically supports
// at least this many pushed labels.
const MaxLabelDepth = 8

// LabelStack is a route encoded as labels, top (first hop) first.
type LabelStack struct {
	labels []Label
}

// PushRoute builds the stack for an output-port list (hop order).
func PushRoute(ports []int) (LabelStack, error) {
	if len(ports) > MaxLabelDepth {
		return LabelStack{}, fmt.Errorf("addressing: route of %d hops exceeds label depth %d",
			len(ports), MaxLabelDepth)
	}
	ls := LabelStack{labels: make([]Label, 0, len(ports))}
	for i, p := range ports {
		if p < 0 {
			return LabelStack{}, fmt.Errorf("addressing: negative port at hop %d", i)
		}
		ls.labels = append(ls.labels, Label(p))
	}
	return ls, nil
}

// Depth returns the remaining label count.
func (ls LabelStack) Depth() int { return len(ls.labels) }

// Pop removes and returns the top label, as a transit switch does.
func (ls LabelStack) Pop() (Label, LabelStack, error) {
	if len(ls.labels) == 0 {
		return 0, ls, fmt.Errorf("addressing: pop on empty label stack")
	}
	return ls.labels[0], LabelStack{labels: ls.labels[1:]}, nil
}

// WalkSegments forwards a label stack through the topology from the
// ingress switch, popping one label per hop, and returns the visited
// switch-level nodes. It verifies the PCE encoding against the fabric.
func WalkSegments(t *topo.Topology, ingress int, ls LabelStack) ([]int, error) {
	nodes := []int{ingress}
	cur := ingress
	for ls.Depth() > 0 {
		var label Label
		var err error
		label, ls, err = ls.Pop()
		if err != nil {
			return nil, err
		}
		inc := t.G.Incident(cur)
		if int(label) >= len(inc) {
			return nil, fmt.Errorf("addressing: switch %d has no port %d", cur, label)
		}
		next := t.G.Link(inc[int(label)]).Other(cur)
		nodes = append(nodes, next)
		cur = next
	}
	return nodes, nil
}

// SegmentsForPath encodes a switch-level path as a label stack via the
// dense port numbering.
func SegmentsForPath(t *topo.Topology, p graph.Path) (LabelStack, error) {
	ports, err := RouteForPath(t, p)
	if err != nil {
		return LabelStack{}, err
	}
	return PushRoute(ports)
}

// IngressStateCount returns the per-ingress-switch state under segment
// routing: one stack per (egress switch, path) — S*k routes, identical to
// the OpenFlow source-routing count, with zero transit state (labels are
// processed by the forwarding ASIC, not matched from a rule table).
func IngressStateCount(numIngress, k int) int { return numIngress * k }

func TestLabelStackPushPop(t *testing.T) {
	ls, err := PushRoute([]int{3, 0, 7})
	if err != nil {
		t.Fatal(err)
	}
	if ls.Depth() != 3 {
		t.Fatalf("depth = %d", ls.Depth())
	}
	want := []Label{3, 0, 7}
	for _, w := range want {
		var l Label
		l, ls, err = ls.Pop()
		if err != nil {
			t.Fatal(err)
		}
		if l != w {
			t.Fatalf("popped %d, want %d", l, w)
		}
	}
	if _, _, err := ls.Pop(); err == nil {
		t.Fatal("pop on empty stack succeeded")
	}
}

func TestPushRouteValidation(t *testing.T) {
	if _, err := PushRoute(make([]int, MaxLabelDepth+1)); err == nil {
		t.Fatal("overdeep route accepted")
	}
	if _, err := PushRoute([]int{-1}); err == nil {
		t.Fatal("negative port accepted")
	}
}

// TestSegmentWalkMatchesPaths verifies that PCE label stacks reproduce the
// k-shortest paths on the realized flat-tree example network, and that the
// MPLS and MAC/TTL encodings agree hop for hop.
func TestSegmentWalkMatchesPaths(t *testing.T) {
	nw, err := core.ExampleNetwork()
	if err != nil {
		t.Fatal(err)
	}
	nw.SetMode(core.ModeGlobal)
	r := nw.Realize()
	tb := routing.BuildKShortest(r.Topo, 4)
	checked := 0
	for i, paths := range tb.Paths {
		pair := tb.Pair(i)
		for _, p := range paths {
			ls, err := SegmentsForPath(r.Topo, p)
			if err != nil {
				t.Fatal(err)
			}
			nodes, err := WalkSegments(r.Topo, pair.Src, ls)
			if err != nil {
				t.Fatal(err)
			}
			for i := range nodes {
				if nodes[i] != p.Nodes[i] {
					t.Fatalf("segment walk diverged: %v vs %v", nodes, p.Nodes)
				}
			}
			// Cross-check against the MAC/TTL encoding.
			ports, err := RouteForPath(r.Topo, p)
			if err != nil {
				t.Fatal(err)
			}
			if len(ports) <= MaxHops {
				mac, err := EncodeRoute(ports)
				if err != nil {
					t.Fatal(err)
				}
				macNodes, err := Walk(r.Topo, pair.Src, mac, len(ports))
				if err != nil {
					t.Fatal(err)
				}
				for i := range macNodes {
					if macNodes[i] != nodes[i] {
						t.Fatal("MPLS and MAC encodings disagree")
					}
				}
			}
			checked++
		}
		if checked > 150 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no paths checked")
	}
}

func TestIngressStateCount(t *testing.T) {
	if got := IngressStateCount(20, 4); got != 80 {
		t.Fatalf("state count = %d, want 80", got)
	}
}
