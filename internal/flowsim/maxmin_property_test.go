package flowsim

import (
	"math"
	"math/rand"
	"testing"
)

// randomScenario builds a random fabric and subflow set. Everything is
// driven by the seed so failures reproduce exactly.
func randomScenario(seed int64) ([]float64, []Subflow) {
	rng := rand.New(rand.NewSource(seed))
	nLinks := 4 + rng.Intn(12)
	caps := make([]float64, nLinks)
	for l := range caps {
		caps[l] = 1 + 9*rng.Float64()
	}
	nSubs := 5 + rng.Intn(40)
	subs := make([]Subflow, nSubs)
	for i := range subs {
		hops := 1 + rng.Intn(4)
		links := make([]int, 0, hops)
		used := map[int]bool{}
		for len(links) < hops {
			l := rng.Intn(nLinks)
			if !used[l] {
				used[l] = true
				links = append(links, l)
			}
		}
		w := 1.0
		if rng.Intn(2) == 0 {
			w = 1.0 / float64(1+rng.Intn(8))
		}
		subs[i] = Subflow{Conn: i, Links: links, Weight: w}
	}
	return caps, subs
}

// TestMaxMinRatesPermutationInvariant is the progressive-filling max-min
// property test of the PR's test layer: the fair allocation is a property
// of the (links, subflows) set, not of the order subflows are listed in,
// so permuting the input must permute the output and nothing else.
// (The issue files this under the LP/mcf invariants; progressive filling
// lives here in flowsim, so the test does too.)
func TestMaxMinRatesPermutationInvariant(t *testing.T) {
	const tol = 1e-9
	for seed := int64(1); seed <= 30; seed++ {
		caps, subs := randomScenario(seed)
		base, err := MaxMinRates(caps, subs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		perm := rand.New(rand.NewSource(seed * 7919)).Perm(len(subs))
		shuffled := make([]Subflow, len(subs))
		for to, from := range perm {
			shuffled[to] = subs[from]
		}
		got, err := MaxMinRates(caps, shuffled)
		if err != nil {
			t.Fatalf("seed %d (shuffled): %v", seed, err)
		}
		for to, from := range perm {
			if math.Abs(got[to]-base[from]) > tol {
				t.Fatalf("seed %d: subflow %d rate %.15g, but %.15g after permutation",
					seed, from, base[from], got[to])
			}
		}
	}
}

// largeScenario builds a fabric and subflow population at the scale the
// SoA core exists for: 8,192 links with heterogeneous capacities so
// saturation staggers over many progressive-filling rounds, and 100k+
// subflows of mixed weights.
func largeScenario(seed int64) ([]float64, []Subflow) {
	rng := rand.New(rand.NewSource(seed))
	const nLinks = 8192
	caps := make([]float64, nLinks)
	for l := range caps {
		caps[l] = 1 + 99*rng.Float64()
	}
	nSubs := 100_000 + rng.Intn(20_000)
	subs := make([]Subflow, nSubs)
	for i := range subs {
		hops := 2 + rng.Intn(3)
		links := make([]int, hops)
		for h := range links {
			links[h] = rng.Intn(nLinks)
		}
		w := 1.0
		if i%3 == 0 {
			w = 1.0 / float64(1+rng.Intn(8))
		}
		subs[i] = Subflow{Conn: i, Links: links, Weight: w}
	}
	return caps, subs
}

// TestMaxMinLargeScaleInvariants checks the defining weighted max-min
// properties at 100k+ subflows with linear-time checkers: no link over
// capacity (bottleneck saturation is what the allocator's rounds drain
// toward), and every subflow is blocked by a saturated link on which its
// normalized level is maximal (Bertsekas–Gallager weighted fairness).
// The small-scenario test below does the same with an O(n^2) oracle;
// this one proves the invariants survive the scale the SoA core exists
// for, with 8k links loaded for thousands of rounds.
func TestMaxMinLargeScaleInvariants(t *testing.T) {
	const tol = 1e-6
	caps, subs := largeScenario(1)
	rates, err := MaxMinRates(caps, subs)
	if err != nil {
		t.Fatal(err)
	}
	load := make([]float64, len(caps))
	maxLevel := make([]float64, len(caps))
	for i, s := range subs {
		level := rates[i] / s.Weight
		for _, l := range s.Links {
			load[l] += rates[i]
			if level > maxLevel[l] {
				maxLevel[l] = level
			}
		}
	}
	for l := range caps {
		if load[l] > caps[l]*(1+tol)+tol {
			t.Fatalf("link %d load %.12g exceeds capacity %.12g", l, load[l], caps[l])
		}
	}
	blockedCount := 0
	for i, s := range subs {
		level := rates[i] / s.Weight
		blocked := false
		for _, l := range s.Links {
			if load[l] >= caps[l]*(1-tol)-tol && level >= maxLevel[l]*(1-tol) {
				blocked = true
				break
			}
		}
		if !blocked {
			t.Fatalf("subflow %d (rate %.12g, level %.12g) has no bottleneck link", i, rates[i], level)
		}
		blockedCount++
	}
	if blockedCount != len(subs) {
		t.Fatalf("checked %d of %d subflows", blockedCount, len(subs))
	}
}

// TestMaxMinLargeScaleDifferential pins the allocator to the retained
// reference allocator bit for bit on the large scenario, where thousands
// of rounds each scan, compact and drain thousands of loaded links.
func TestMaxMinLargeScaleDifferential(t *testing.T) {
	caps, subs := largeScenario(2)
	got, err := MaxMinRates(caps, subs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := maxMinRatesRef(caps, subs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("subflow %d: rate %.17g, reference %.17g", i, got[i], want[i])
		}
	}
}

// TestMaxMinRatesIsMaxMin checks the defining max-min properties on random
// scenarios: no link over capacity, and every unfrozen subflow is blocked
// by some saturated link where it holds at least its weighted fair share —
// i.e. no subflow's rate can grow without shrinking a share that is not
// larger than its own.
func TestMaxMinRatesIsMaxMin(t *testing.T) {
	const tol = 1e-7
	for seed := int64(1); seed <= 30; seed++ {
		caps, subs := randomScenario(seed)
		rates, err := MaxMinRates(caps, subs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		load := make([]float64, len(caps))
		for i, s := range subs {
			for _, l := range s.Links {
				load[l] += rates[i]
			}
		}
		for l := range caps {
			if load[l] > caps[l]+tol {
				t.Fatalf("seed %d: link %d load %.12g exceeds capacity %.12g", seed, l, load[l], caps[l])
			}
		}
		for i, s := range subs {
			if len(s.Links) == 0 {
				continue
			}
			// Normalized rate = rate/weight, the "water level" of the
			// subflow. Bertsekas–Gallager: the allocation is weighted
			// max-min fair iff every subflow has a bottleneck — a saturated
			// link on which its level is maximal, so growing it can only
			// take bandwidth from subflows no better off than itself.
			level := rates[i] / s.Weight
			blocked := false
			for _, l := range s.Links {
				if load[l] < caps[l]-tol {
					continue
				}
				maxLevel := 0.0
				for j, o := range subs {
					for _, ol := range o.Links {
						if ol == l {
							if lv := rates[j] / o.Weight; lv > maxLevel {
								maxLevel = lv
							}
						}
					}
				}
				if level >= maxLevel-tol {
					blocked = true
					break
				}
			}
			if !blocked {
				t.Fatalf("seed %d: subflow %d (rate %.12g, level %.12g) has no bottleneck link",
					seed, i, rates[i], level)
			}
		}
	}
}
