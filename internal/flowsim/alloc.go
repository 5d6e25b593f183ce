// Package flowsim is a flow-level network simulator: the substrate this
// reproduction uses in place of the paper's MPTCP packet-level simulator.
//
// Transport connections are fluid flows over fixed path sets. Rates are
// the weighted max-min fair allocation computed by progressive filling —
// the steady state that TCP-family congestion control converges to. MPTCP
// connections hold k subflows of weight 1/k each (modeling coupled
// congestion control's one-connection-worth of aggression, §4.1); TCP/ECMP
// connections hold a single path of weight 1. An event-driven loop
// advances flow arrivals and completions to produce flow completion times
// (Figure 8) and throughput time series (Figure 10).
package flowsim

import (
	"fmt"
	"math"
)

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
