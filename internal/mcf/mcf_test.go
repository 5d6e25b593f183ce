package mcf

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"flattree/internal/graph"
)

// line builds a path graph 0-1-...-n-1 with the given per-link capacity.
func line(n int, cap float64) *graph.Graph {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddLink(i, i+1, cap)
	}
	return g
}

func TestMaxConcurrentSingleLink(t *testing.T) {
	g := line(2, 10)
	res, err := MaxConcurrent(g, []Commodity{{Src: 0, Dst: 1, Demand: 1}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// One unit-demand commodity on a 10-capacity link: λ should approach
	// 10 (the link fits 10 demand units).
	if res.Lambda < 8 || res.Lambda > 10.0001 {
		t.Fatalf("lambda = %v, want ~10", res.Lambda)
	}
}

func TestMaxConcurrentFullDuplex(t *testing.T) {
	// Opposite directions of a full-duplex link do not contend: both
	// commodities approach 10.
	g := line(2, 10)
	comms := []Commodity{
		{Src: 0, Dst: 1, Demand: 1},
		{Src: 1, Dst: 0, Demand: 1},
	}
	res, err := MaxConcurrent(g, comms, Options{Epsilon: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lambda < 8 || res.Lambda > 10.0001 {
		t.Fatalf("lambda = %v, want ~10 (full duplex)", res.Lambda)
	}
}

func TestMaxConcurrentSharedBottleneck(t *testing.T) {
	// Two commodities in the SAME direction share the 10-capacity arc:
	// λ -> 5 each.
	g := graph.New(3)
	g.AddLink(0, 1, 10)
	g.AddLink(2, 1, 10)
	comms := []Commodity{
		{Src: 0, Dst: 1, Demand: 1},
		{Src: 2, Dst: 1, Demand: 1},
	}
	// Both enter node 1 over separate links: no contention, λ ~ 10. Now
	// force sharing with a common tail instead.
	res, err := MaxConcurrent(g, comms, Options{Epsilon: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lambda < 8 {
		t.Fatalf("separate-link lambda = %v, want ~10", res.Lambda)
	}
	shared := line(2, 10)
	comms = []Commodity{
		{Src: 0, Dst: 1, Demand: 1},
		{Src: 0, Dst: 1, Demand: 1},
	}
	res, err = MaxConcurrent(shared, comms, Options{Epsilon: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lambda < 4 || res.Lambda > 5.0001 {
		t.Fatalf("lambda = %v, want ~5", res.Lambda)
	}
	// Concurrent flow: both flows within 25% of each other.
	if r := res.PerFlow[0] / res.PerFlow[1]; r < 0.75 || r > 1.33 {
		t.Fatalf("flow imbalance: %v", res.PerFlow)
	}
}

func TestMaxConcurrentUsesBothParallelPaths(t *testing.T) {
	// Diamond: 0-1-3 and 0-2-3, capacity 10 per link. One commodity 0->3
	// should achieve ~20 by splitting.
	g := graph.New(4)
	g.AddLink(0, 1, 10)
	g.AddLink(1, 3, 10)
	g.AddLink(0, 2, 10)
	g.AddLink(2, 3, 10)
	res, err := MaxConcurrent(g, []Commodity{{Src: 0, Dst: 3, Demand: 1}}, Options{Epsilon: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lambda < 16 {
		t.Fatalf("lambda = %v, want ~20 (multipath)", res.Lambda)
	}
}

func TestMaxConcurrentFeasibility(t *testing.T) {
	// The rescaled solution must respect every link capacity. Reconstruct
	// link loads by re-running on a ring with several commodities and
	// verifying λ against the known optimum.
	g := graph.New(6)
	for i := 0; i < 6; i++ {
		g.AddLink(i, (i+1)%6, 1)
	}
	comms := []Commodity{
		{Src: 0, Dst: 3, Demand: 1},
		{Src: 1, Dst: 4, Demand: 1},
		{Src: 2, Dst: 5, Demand: 1},
	}
	res, err := MaxConcurrent(g, comms, Options{Epsilon: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	// Full-duplex ring: splitting each commodity into clockwise and
	// counter-clockwise halves, the most-loaded arc carries all three
	// commodities' shares in each direction: 3x <= 1 and 3y <= 1, so
	// λ = x + y = 2/3.
	if res.Lambda < 0.55 || res.Lambda > 0.6701 {
		t.Fatalf("lambda = %v, want ~0.667", res.Lambda)
	}
}

func TestMaxTotalPrefersCheapFlows(t *testing.T) {
	// Commodity A has a 1-hop path of capacity 10; commodity B must cross
	// the same link plus another. Max total should favor A but fill all
	// capacity it can.
	g := graph.New(3)
	g.AddLink(0, 1, 10)
	g.AddLink(1, 2, 10)
	comms := []Commodity{
		{Src: 0, Dst: 1, Demand: 1},
		{Src: 0, Dst: 2, Demand: 1},
	}
	res, err := MaxTotal(g, comms, Options{Epsilon: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	// Optimal total is 10: link 0-1 is the bottleneck for both.
	if res.Total < 8 || res.Total > 10.0001 {
		t.Fatalf("total = %v, want ~10", res.Total)
	}
}

func TestMaxTotalVsConcurrentShape(t *testing.T) {
	// On an asymmetric topology LP-average achieves at least the LP-min
	// total, and LP-min achieves at least the LP-average minimum
	// (Figure 7's qualitative relationship).
	g := graph.New(4)
	g.AddLink(0, 1, 10)
	g.AddLink(1, 2, 2) // thin middle link
	g.AddLink(2, 3, 10)
	comms := []Commodity{
		{Src: 0, Dst: 1, Demand: 1},
		{Src: 0, Dst: 3, Demand: 1},
	}
	avg, err := MaxTotal(g, comms, Options{Epsilon: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	min, err := MaxConcurrent(g, comms, Options{Epsilon: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if avg.Total < min.Total*0.95 {
		t.Fatalf("LP average total %v below LP min total %v", avg.Total, min.Total)
	}
	if min.Min() < avg.Min() {
		t.Fatalf("LP min minimum %v below LP average minimum %v", min.Min(), avg.Min())
	}
}

func TestCommodityValidation(t *testing.T) {
	g := line(3, 1)
	bad := [][]Commodity{
		{{Src: 0, Dst: 0, Demand: 1}},
		{{Src: 0, Dst: 9, Demand: 1}},
		{{Src: 0, Dst: 1, Demand: 0}},
		{{Src: -1, Dst: 1, Demand: 1}},
	}
	for _, comms := range bad {
		if _, err := MaxConcurrent(g, comms, Options{}); err == nil {
			t.Errorf("commodities %v accepted", comms)
		}
		if _, err := MaxTotal(g, comms, Options{}); err == nil {
			t.Errorf("commodities %v accepted by MaxTotal", comms)
		}
	}
}

// TestEpsilonRejected pins the exact error for an ε the scheme cannot
// run at: NaN, negative, and 1 or above used to print NaN or run at the
// default 0.1. Zero keeps the default.
func TestEpsilonRejected(t *testing.T) {
	g := line(2, 10)
	comms := []Commodity{{Src: 0, Dst: 1, Demand: 1}}
	for _, eps := range []float64{math.NaN(), -1, -0.1, 1, 5, math.Inf(1)} {
		want := fmt.Sprintf("mcf: Options.Epsilon %v (want > 0 and < 1; zero uses the default 0.1)", eps)
		if _, err := MaxConcurrent(g, comms, Options{Epsilon: eps}); err == nil || err.Error() != want {
			t.Errorf("MaxConcurrent(ε=%v) error = %v, want %q", eps, err, want)
		}
		if _, err := MaxTotal(g, comms, Options{Epsilon: eps}); err == nil || err.Error() != want {
			t.Errorf("MaxTotal(ε=%v) error = %v, want %q", eps, err, want)
		}
	}
	zero, err := MaxConcurrent(g, comms, Options{})
	if err != nil {
		t.Fatal(err)
	}
	def, err := MaxConcurrent(g, comms, Options{Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if zero.Lambda != def.Lambda {
		t.Fatalf("ε=0 gave λ %v, ε=0.1 gave %v; want the default", zero.Lambda, def.Lambda)
	}
}

func TestDisconnectedCommodity(t *testing.T) {
	g := graph.New(4)
	g.AddLink(0, 1, 1)
	g.AddLink(2, 3, 1)
	if _, err := MaxConcurrent(g, []Commodity{{Src: 0, Dst: 3, Demand: 1}}, Options{}); err == nil {
		t.Fatal("disconnected commodity accepted by MaxConcurrent")
	}
	// MaxTotal tolerates it: the flow simply gets zero.
	res, err := MaxTotal(g, []Commodity{
		{Src: 0, Dst: 1, Demand: 1},
		{Src: 0, Dst: 3, Demand: 1},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PerFlow[1] != 0 {
		t.Fatalf("disconnected flow got %v", res.PerFlow[1])
	}
	if res.PerFlow[0] <= 0 {
		t.Fatal("connected flow got nothing")
	}
}

// Property: MaxConcurrent's reported allocation is always feasible — we
// verify by checking Lambda and PerFlow are finite, nonnegative, and the
// per-flow minimum matches Lambda within tolerance.
func TestMaxConcurrentProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := seed
		next := func(n int) int {
			rng = rng*6364136223846793005 + 1442695040888963407
			v := int((rng >> 33) % int64(n))
			if v < 0 {
				v += n
			}
			return v
		}
		n := 4 + next(5)
		g := graph.New(n)
		for i := 1; i < n; i++ {
			g.AddLink(i, next(i), 1+float64(next(10)))
		}
		for e := 0; e < n; e++ {
			a, b := next(n), next(n)
			if a != b {
				g.AddLink(a, b, 1+float64(next(10)))
			}
		}
		var comms []Commodity
		for c := 0; c < 1+next(4); c++ {
			a, b := next(n), next(n)
			if a == b {
				b = (b + 1) % n
			}
			comms = append(comms, Commodity{Src: a, Dst: b, Demand: 1})
		}
		res, err := MaxConcurrent(g, comms, Options{Epsilon: 0.15})
		if err != nil {
			return false
		}
		if math.IsNaN(res.Lambda) || res.Lambda <= 0 {
			return false
		}
		for _, f := range res.PerFlow {
			if f < res.Lambda-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
