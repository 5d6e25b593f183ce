package flowsim

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"flattree/internal/recorder"
	"flattree/internal/telemetry"
)

// connState is one admitted connection's event-loop state. It lives in a
// slot that is recycled once the connection retires, so the slot count
// tracks peak concurrency, not the connection count.
type connState struct {
	res       ConnResult
	weight    float64 // ConnSpec.Weight, which a reroute's setPaths needs
	remaining float64 // bits left to send
	backoff   float64
	nextRetry float64
	stalled   bool // parked: excluded from allocation
	retrying  bool // woken for a backoff probe this instant
}

// pendingRoute is what reroutes left for a connection that had not
// arrived yet: the paths it is admitted on and the reroutes counted.
type pendingRoute struct {
	paths    [][]int
	reroutes int
}

// loop is the event loop behind Run and RunStream. next yields
// connections as (id, spec) pairs in nondecreasing arrival order, ids
// distinct and non-negative; sink receives each connection's result
// exactly once, when it retires or when the run stops. Ids fix every
// order that moves a float or an event: the active set, the allocator's
// per-link membership, completion ties and recorder events all follow
// ascending id. Reroute events address connections by id, below nIDs, or
// any non-negative id when nIDs is negative (a stream of unknown length).
// The caller has validated the run-level inputs (Sim.validate).
func (s *Sim) loop(nIDs int, next func() (int, ConnSpec, bool), sink func(id int, res ConnResult)) error {
	// Capacities are private: topology events mutate them mid-run. The
	// allocator core aliases this slice, so SetCaps writes land without
	// a rebuild.
	caps := append([]float64(nil), s.caps...)
	retryBase, retryMax := s.retryBounds()
	st := newAllocState(caps, 0)

	var conns []connState
	var freeSlots []int32
	// The active set: ascending ids, each with its slot alongside.
	activeIDs := make([]int, 0, 64)
	activeSlots := make([]int32, 0, 64)
	runIDs := make([]int, 0, 64)
	runSlots := make([]int32, 0, 64)
	runRates := make([]float64, 0, 64)
	var rerouted []int

	// A reroute must tell a connection that has not been admitted (its
	// paths wait in pending) from one that has retired (skipped). Every
	// id below admittedBelow has been admitted; admittedAbove holds the
	// admitted ids above it, which only arrivals out of id order leave.
	var pending map[int]pendingRoute
	var admittedAbove map[int]bool
	admittedBelow := 0

	// One-connection lookahead over next; the connection waiting here is
	// not admitted yet.
	var (
		pendID int
		pend   ConnSpec
		pendOK bool
	)
	lastArrival := math.Inf(-1)
	pull := func() error {
		if pendID, pend, pendOK = next(); !pendOK {
			return nil
		}
		if err := validateSpec(pendID, pend, s.Graceful); err != nil {
			return err
		}
		if pend.Arrival < lastArrival {
			return fmt.Errorf("flowsim: stream connection %d arrives at %v, before %v — arrivals must be nondecreasing",
				pendID, pend.Arrival, lastArrival)
		}
		lastArrival = pend.Arrival
		return nil
	}

	// Handles are resolved once per run; nil (disabled) handles cost one
	// predictable branch per use.
	events := telemetry.C("flowsim_events_total")
	completed := telemetry.C("flowsim_flows_completed_total")
	fct := telemetry.H("flowsim_fct_seconds")
	stalls := telemetry.C("flowsim_stalls_total")
	reroutes := telemetry.C("flowsim_reroutes_total")
	disconnected := telemetry.C("flowsim_disconnected_total")
	stallHist := telemetry.H("flowsim_stall_seconds")

	// emit delivers one connection's final result, observing its stall
	// time exactly once.
	//
	//flatvet:hotpath once per connection, at retirement or at the stop
	emit := func(id int, res ConnResult) {
		if res.StallTime > 0 {
			stallHist.Observe(res.StallTime)
		}
		sink(id, res)
	}
	// stop ends the run: the active connections go to sink in ascending id
	// order, then every connection not yet admitted, unstarted, with the
	// reroutes that reached it before its arrival.
	stop := func() error {
		for i, id := range activeIDs {
			emit(id, conns[activeSlots[i]].res)
		}
		for pendOK {
			emit(pendID, ConnResult{Start: pend.Arrival, Finish: math.Inf(1), Bits: pend.Bits,
				Reroutes: pending[pendID].reroutes})
			if err := pull(); err != nil {
				return err
			}
		}
		return nil
	}

	if err := pull(); err != nil {
		return err
	}
	nextEvent := 0
	t := 0.0
	for {
		events.Inc()
		// Apply topology events due at the current time, in schedule order.
		for nextEvent < len(s.events) && s.events[nextEvent].Time <= t+1e-12 {
			ev := s.events[nextEvent]
			nextEvent++
			//flatvet:ordered writes to distinct link slots; order-independent
			for l, cp := range ev.SetCaps {
				if l < 0 || l >= len(caps) {
					return fmt.Errorf("flowsim: event at t=%v sets capacity of link %d of %d", ev.Time, l, len(caps))
				}
				if math.IsNaN(cp) || cp < 0 {
					return fmt.Errorf("flowsim: event at t=%v sets link %d capacity %v (want >= 0)", ev.Time, l, cp)
				}
				caps[l] = cp
			}
			// Reroutes apply in ascending id order (bookkeeping only — path
			// replacement is order-independent, counters are not).
			rerouted = rerouted[:0]
			for c := range ev.Reroute {
				rerouted = append(rerouted, c)
			}
			sort.Ints(rerouted)
			for _, c := range rerouted {
				if c < 0 && nIDs < 0 {
					return fmt.Errorf("flowsim: event at t=%v reroutes connection %d (stream ids count from 0)", ev.Time, c)
				}
				if nIDs >= 0 && (c < 0 || c >= nIDs) {
					return fmt.Errorf("flowsim: event at t=%v reroutes connection %d of %d", ev.Time, c, nIDs)
				}
				paths := ev.Reroute[c]
				if i, ok := slices.BinarySearch(activeIDs, c); ok {
					slot := activeSlots[i]
					if err := st.setPaths(int(slot), c, conns[slot].weight, paths); err != nil {
						return err
					}
					conns[slot].res.Reroutes++
				} else if c < admittedBelow || admittedAbove[c] {
					continue // already completed
				} else {
					if pending == nil {
						pending = make(map[int]pendingRoute)
					}
					pending[c] = pendingRoute{paths: paths, reroutes: pending[c].reroutes + 1}
				}
				reroutes.Inc()
				s.Rec.Emit(recorder.Event{T: ev.Time, Kind: recorder.FlowReroute, ID: c, A: int64(len(paths))})
			}
		}
		// Admit arrivals at the current time, pulling the source forward.
		for pendOK && pend.Arrival <= t+1e-12 {
			id, sp := pendID, pend
			c := connState{res: ConnResult{Start: sp.Arrival, Finish: math.Inf(1), Bits: sp.Bits},
				weight: sp.Weight, remaining: sp.Bits}
			if p, ok := pending[id]; ok {
				sp.Paths, c.res.Reroutes = p.paths, p.reroutes
				delete(pending, id)
			}
			var slot int32
			if k := len(freeSlots); k > 0 {
				slot, freeSlots = freeSlots[k-1], freeSlots[:k-1]
			} else {
				slot = int32(len(conns))
				conns = append(conns, connState{})
				st.growSlots(len(conns))
			}
			if err := st.admit(int(slot), id, sp.Weight, sp.Paths); err != nil {
				return err
			}
			conns[slot] = c
			// Insert in id order. A stream's ids only grow, so for it the
			// first comparison already ends the shift.
			activeIDs = append(activeIDs, id)
			activeSlots = append(activeSlots, slot)
			for k := len(activeIDs) - 1; k > 0 && activeIDs[k-1] > id; k-- {
				activeIDs[k-1], activeIDs[k] = activeIDs[k], activeIDs[k-1]
				activeSlots[k-1], activeSlots[k] = activeSlots[k], activeSlots[k-1]
			}
			if id == admittedBelow {
				admittedBelow++
				for admittedAbove[admittedBelow] {
					delete(admittedAbove, admittedBelow)
					admittedBelow++
				}
			} else {
				if admittedAbove == nil {
					admittedAbove = make(map[int]bool)
				}
				admittedAbove[id] = true
			}
			s.Rec.Emit(recorder.Event{T: sp.Arrival, Kind: recorder.FlowStart, ID: id, A: int64(len(sp.Paths))})
			if err := pull(); err != nil {
				return err
			}
		}
		// Wake stalled connections whose retry timer fired; the allocation
		// below decides whether the probe succeeds.
		for _, slot := range activeSlots {
			if c := &conns[slot]; c.stalled && c.nextRetry <= t+1e-12 {
				c.stalled, c.retrying = false, true
			}
		}
		// The next arrival or topology event bounds this step. With nothing
		// active, jump straight to it: events still apply with no flows
		// running, keeping capacities and path sets current for later
		// arrivals.
		nextT := math.Inf(1)
		if pendOK {
			nextT = pend.Arrival
		}
		if nextEvent < len(s.events) && s.events[nextEvent].Time < nextT {
			nextT = s.events[nextEvent].Time
		}
		if len(activeIDs) == 0 {
			if !pendOK {
				return nil
			}
			t = nextT
			continue
		}
		// Allocate rates for the running (non-stalled) set, ascending id.
		runIDs, runSlots = runIDs[:0], runSlots[:0]
		for i, slot := range activeSlots {
			if !conns[slot].stalled {
				runIDs = append(runIDs, activeIDs[i])
				runSlots = append(runSlots, slot)
			}
		}
		st.allocate(runSlots)
		runRates = runRates[:0]
		for _, slot := range runSlots {
			runRates = append(runRates, st.rate(int(slot), s.LocalRate))
		}
		s.Rec.Emit(recorder.Event{T: t, Kind: recorder.AllocRound, A: int64(len(runSlots)), B: int64(len(activeIDs))})
		// Graceful degradation: finite connections at zero rate lost every
		// path. While future events could revive them they park and retry
		// with backoff; once no event or arrival remains, nothing can —
		// park them for good (infinite retry timer), so they accrue stall
		// time for the rest of the simulated span instead of burning retry
		// probes.
		if s.Graceful {
			noFuture := !pendOK && nextEvent >= len(s.events)
			starved := false
			for ri, slot := range runSlots {
				c := &conns[slot]
				if math.IsInf(c.remaining, 1) {
					continue
				}
				if runRates[ri] > 1e-15 {
					c.retrying = false // probe succeeded: connection resumed
					continue
				}
				starved = true
				c.stalled = true
				switch {
				case noFuture:
					c.retrying, c.nextRetry = false, math.Inf(1)
					disconnected.Inc()
					s.Rec.Emit(recorder.Event{T: t, Kind: recorder.FlowDisconnect, ID: runIDs[ri]})
					continue
				case c.retrying:
					c.backoff = min(2*c.backoff, retryMax) // the probe failed
				default:
					c.backoff = retryBase // a fresh stall
					stalls.Inc()
					s.Rec.Emit(recorder.Event{T: t, Kind: recorder.FlowStall, ID: runIDs[ri]})
				}
				c.retrying = false
				c.nextRetry = t + c.backoff
			}
			if starved {
				continue // reallocate without the just-parked connections
			}
		}
		// The step ends at the earliest arrival, topology event, stall-retry
		// probe or completion.
		for _, slot := range activeSlots {
			if c := &conns[slot]; c.stalled && c.nextRetry < nextT {
				nextT = c.nextRetry
			}
		}
		completing := int32(-1)
		for ri, slot := range runSlots {
			r, left := runRates[ri], conns[slot].remaining
			if math.IsInf(left, 1) || r <= 1e-15 {
				continue
			}
			if fin := t + left/r; fin < nextT {
				nextT, completing = fin, slot
			}
		}
		stopping := s.Horizon > 0 && nextT > s.Horizon
		if stopping {
			nextT = s.Horizon
		} else if math.IsInf(nextT, 1) {
			// Only persistent or starved flows remain. Stalled connections
			// sit at rate zero by construction, so the starvation check
			// only concerns the running set.
			for ri, slot := range runSlots {
				if runRates[ri] <= 1e-15 && !math.IsInf(conns[slot].remaining, 1) {
					return fmt.Errorf("flowsim: connection %d starved (disconnected path set?)", runIDs[ri])
				}
			}
			return stop()
		}
		// Account progress and stall time up to the step's end; at the
		// horizon that is the last accounting before the stop.
		dt := nextT - t
		for ri, slot := range runSlots {
			conns[slot].remaining -= runRates[ri] * dt
		}
		for _, slot := range activeSlots {
			if c := &conns[slot]; c.stalled {
				c.res.StallTime += dt
			}
		}
		if stopping {
			return stop()
		}
		t = nextT
		// Retire completed connections (the chosen one plus any that hit
		// zero within tolerance): sink the result, free the slot.
		anyRetired := false
		for ri, slot := range runSlots {
			c := &conns[slot]
			if math.IsInf(c.remaining, 1) || (slot != completing && !(c.remaining <= 1e-6)) {
				continue
			}
			id := runIDs[ri]
			c.res.Finish = t
			st.retire(int(slot), id)
			completed.Inc()
			fct.Observe(c.res.FCT())
			s.Rec.Emit(recorder.Event{T: t, Kind: recorder.FlowRetire, ID: id, V: c.res.FCT(), A: int64(c.res.Reroutes)})
			emit(id, c.res)
			freeSlots = append(freeSlots, slot)
			anyRetired = true
		}
		if anyRetired {
			// Retired connections are the ones with a finite Finish.
			keptIDs, keptSlots := activeIDs[:0], activeSlots[:0]
			for i, slot := range activeSlots {
				if math.IsInf(conns[slot].res.Finish, 1) {
					keptIDs = append(keptIDs, activeIDs[i])
					keptSlots = append(keptSlots, slot)
				}
			}
			activeIDs, activeSlots = keptIDs, keptSlots
			st.maybeCompact(activeIDs, activeSlots)
		}
	}
}
