package addressing

import (
	"testing"

	"flattree/internal/core"
	"flattree/internal/routing"
)

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
