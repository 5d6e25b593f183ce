package flowsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// This file holds the allocator's one-shot entry point. Sim never calls
// it: the property, differential and benchmark suites use it to drive the
// struct-of-arrays core on a bare (capacities, subflows) set.

// Subflow is one path of one connection in the allocator's view.
type Subflow struct {
	// Conn indexes the owning connection.
	Conn int
	// Links lists the link IDs the subflow traverses.
	Links []int
	// Weight is the subflow's fair-share weight (1/k for MPTCP subflows,
	// 1 for plain TCP).
	Weight float64
}

// MaxMinRates computes the weighted max-min fair rate of every subflow by
// progressive filling: all subflows grow proportionally to their weights
// until a link saturates; subflows through saturated links freeze; repeat.
// caps holds per-link capacities (NaN or negative entries are rejected).
// Subflows with no links (same-host) get rate 0 from this allocator's
// perspective; zero-weight subflows are rejected.
//
// The computation runs on the struct-of-arrays core (soa.go), admitting
// each subflow as its own single-path connection; the retained seed
// allocator (maxMinRatesRef in reference_test.go) pins its output
// bit-for-bit.
func MaxMinRates(caps []float64, subs []Subflow) ([]float64, error) {
	rates := make([]float64, len(subs))
	if len(subs) == 0 {
		return rates, nil
	}
	if err := validateCaps(caps); err != nil {
		return nil, err
	}
	occ := make([]int32, len(caps))
	nArena := 0
	for i, s := range subs {
		if math.IsNaN(s.Weight) || s.Weight <= 0 {
			return nil, fmt.Errorf("flowsim: subflow %d has weight %v", i, s.Weight)
		}
		for _, l := range s.Links {
			if l < 0 || l >= len(caps) {
				return nil, fmt.Errorf("flowsim: subflow %d references link %d of %d", i, l, len(caps))
			}
			occ[l]++
		}
		nArena += len(s.Links)
	}
	st := newAllocState(caps, len(subs))
	st.reserveBulk(len(subs), nArena, occ)
	run := make([]int32, len(subs))
	var path [1][]int
	for i, s := range subs {
		path[0] = s.Links
		// A single path splits the weight by 1: the per-subflow weight is
		// s.Weight exactly, as the reference uses it.
		if err := st.admit(i, i, s.Weight, path[:]); err != nil {
			return nil, err
		}
		run[i] = int32(i)
	}
	st.allocate(run)
	for i, s := range subs {
		if len(s.Links) == 0 {
			continue // loopback: rate 0 here; a Sim grants it LocalRate
		}
		rates[i] = st.sfRate[st.subOff[i]]
	}
	return rates, nil
}

// reserveBulk pre-sizes the dense arrays for a one-shot bulk admission of
// nSubs single-path subflows with nArena total link occurrences, occ[l] of
// them on link l. Per-link membership is carved out of one shared backing
// array at exact capacity, so the admission loop never reallocates. Only
// meaningful on a fresh state (MaxMinRates); long-lived Sim states grow
// organically instead.
func (a *allocState) reserveBulk(nSubs, nArena int, occ []int32) {
	a.sfW = make([]float64, 0, nSubs)
	a.sfRate = make([]float64, 0, nSubs)
	a.sfMark = make([]uint64, 0, nSubs)
	a.sfFrozen = make([]uint64, 0, nSubs)
	a.sfLinkOff = make([]int32, 0, nSubs)
	a.sfLinkCnt = make([]int32, 0, nSubs)
	a.arena = make([]int32, 0, nArena)
	backing := make([]member, nArena)
	pos, nLoaded := 0, 0
	for l, c := range occ {
		if c == 0 {
			continue
		}
		nLoaded++
		a.members[l] = backing[pos : pos : pos+int(c)]
		pos += int(c)
	}
	a.memLinks = make([]int32, 0, nLoaded)
	a.roundLoaded = make([]int32, 0, nLoaded)
}

// TestAllocateSteadyStateAllocs holds allocate's hot-path contract: once
// a call has sized the pooled round scratch, a round over thousands of
// loaded links allocates nothing. Heterogeneous capacities stagger
// saturation over many rounds, so the loaded set stays above 4,096 links
// for the early ones.
func TestAllocateSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const nLinks, nConns = 8192, 16_000
	caps := make([]float64, nLinks)
	for l := range caps {
		caps[l] = 1 + 99*rng.Float64()
	}
	st := newAllocState(caps, nConns)
	run := make([]int32, nConns)
	for i := range run {
		paths := make([][]int, 1+rng.Intn(2))
		for p := range paths {
			paths[p] = []int{rng.Intn(nLinks), rng.Intn(nLinks), rng.Intn(nLinks)}
		}
		if err := st.admit(i, i, 1, paths); err != nil {
			t.Fatal(err)
		}
		run[i] = int32(i)
	}
	st.allocate(run) // sorts memLinks and sizes the round scratch
	if n := len(st.memLinks); n < 4096 {
		t.Fatalf("scenario loads %d links, want at least 4096", n)
	}
	allocs := testing.AllocsPerRun(3, func() { st.allocate(run) })
	if allocs != 0 {
		t.Fatalf("allocate made %.1f allocations per call after warm-up, want 0", allocs)
	}
}
