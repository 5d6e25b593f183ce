package control

import (
	"flattree/internal/core"
	"flattree/internal/routing"
)

// Quote prices a what-if topology conversion without touching any live
// state: the Table 3 delay breakdown plus the exact per-switch rule churn
// the conversion would cause. The testbed's controller deletes the old
// mode's rules and installs the new mode's (§5.3), so the delta's Dels are
// the pre-conversion per-switch rule counts and its Adds the
// post-conversion counts.
type Quote struct {
	Report ConversionReport
	Delta  routing.RuleDelta
}

// QuotePodModes prices converting the network to the given per-pod modes
// — the online what-if entry point flatd's /quote/convert serves. It
// converts nw itself, so callers pass a private copy (core.Network.Clone,
// or a freshly built network) and keep live state out of reach; any
// installed routing state stays untouched. A quote is priced, not
// performed: it computes ConvertPods' report but emits no conversion
// span, recorder phases or conversion counters. The quote prices the
// healthy fabric: transient link failures are a routing-layer concern
// (priced per event by routing.IncrementalTable) and do not change the
// conversion's rule churn model. Wall-clock route-computation time is
// zeroed so identical inputs always produce identical quotes.
func QuotePodModes(nw *core.Network, delay DelayModel, kByMode map[core.Mode]int, modes []core.Mode) (*Quote, error) {
	c, err := NewController(nw, delay, kByMode)
	if err != nil {
		return nil, err
	}
	rep, delta, err := c.convert(modes)
	if err != nil {
		return nil, err
	}
	rep.RouteComputeTime = 0
	return &Quote{Report: *rep, Delta: delta}, nil
}
