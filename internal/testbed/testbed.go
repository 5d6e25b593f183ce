// Package testbed emulates the paper's hardware testbed (§5.3, Figure 9):
// the Figure 2 example flat-tree network — 20 packet switches, 24 servers,
// one OCS hosting the converter partitions, all links 10 Gbps — together
// with the iPerf core-bandwidth experiment of Figure 10 and the conversion
// delay measurement of Table 3.
package testbed

import (
	"fmt"
	"math"

	"flattree/internal/control"
	"flattree/internal/core"
	"flattree/internal/flowsim"
	"flattree/internal/ocs"
	"flattree/internal/routing"
)

// K is the number of concurrent paths used on the testbed ("k is set to 4
// as it yields the best performance in the simulation of this network").
const K = 4

// RampDuration is how long MPTCP takes to regrow to full throughput after
// the new rules land; with the ≈1 s conversion delay this reproduces the
// observed 2–2.5 s to maximum throughput (Figure 10).
const RampDuration = 1.2

// MPTCPEfficiency discounts the fluid allocation for the overhead the
// testbed measured: "the overhead of MPTCP and k-shortest-path routing is
// within 9.38% of the bandwidth" (§5.3) — MPTCP packet processing burdens
// the CPU and k-shortest-path routing is imperfect. The fluid allocator is
// overhead-free, so reported bandwidth is scaled by 1 - 9.38%.
const MPTCPEfficiency = 1 - 0.0938

// Testbed wraps the example network, its controller, and the physical
// OCS hosting the converter partitions (Figure 9).
type Testbed struct {
	Ctrl *control.Controller
	// OCS is the 192-port optical circuit switch; Convert reprograms it.
	OCS *ocs.Switch
}

// New builds the testbed in Clos mode with its OCS programmed.
func New() (*Testbed, error) {
	nw, err := core.ExampleNetwork()
	if err != nil {
		return nil, err
	}
	ctrl, err := control.NewController(nw, control.TestbedDelayModel(), map[core.Mode]int{
		core.ModeClos: K, core.ModeLocal: K, core.ModeGlobal: K,
	})
	if err != nil {
		return nil, err
	}
	dev, err := ocs.TestbedOCS(nw)
	if err != nil {
		return nil, err
	}
	if _, err := dev.Program(nw.Converters()); err != nil {
		return nil, err
	}
	return &Testbed{Ctrl: ctrl, OCS: dev}, nil
}

// Convert switches the whole testbed to a mode: the controller converts
// the network and the OCS is reprogrammed to the new circuit set. It
// returns the controller's report plus the number of crosspoints changed.
func (tb *Testbed) Convert(mode core.Mode) (*control.ConversionReport, int, error) {
	rep, err := tb.Ctrl.Convert(mode)
	if err != nil {
		return nil, 0, err
	}
	changed, err := tb.OCS.Program(tb.Ctrl.Network().Converters())
	if err != nil {
		return nil, 0, err
	}
	return rep, changed, nil
}

// IPerfPairs returns the Figure 10 traffic pattern: every server sends to
// the 3 servers with the same index in the other 3 pods, saturating the
// network core.
func (tb *Testbed) IPerfPairs() [][2]int {
	cp := tb.Ctrl.Network().Clos()
	perPod := cp.EdgesPerPod * cp.ServersPerEdge
	n := cp.TotalServers()
	var pairs [][2]int
	for src := 0; src < n; src++ {
		for p := 1; p < cp.Pods; p++ {
			dst := (src + p*perPod) % n
			pairs = append(pairs, [2]int{src, dst})
		}
	}
	return pairs
}

// steadyCoreBandwidth computes the total iPerf throughput in the current
// topology: persistent MPTCP connections with K subflow paths each,
// allocated by weighted max-min fairness.
func (tb *Testbed) steadyCoreBandwidth() (float64, error) {
	r := tb.Ctrl.Realization()
	table := tb.Ctrl.Table()
	caps := routing.DirectedCaps(r.Topo.G)
	var specs []flowsim.ConnSpec
	servers := r.Topo.Servers()
	for _, pr := range tb.IPerfPairs() {
		specs = append(specs, flowsim.ConnSpec{
			Paths: table.ServerSlots(servers[pr[0]], servers[pr[1]]),
			Bits:  math.Inf(1),
		})
	}
	rates, err := flowsim.StaticRates(caps, specs, 10)
	if err != nil {
		return 0, err
	}
	var total float64
	for _, r := range rates {
		total += r
	}
	return total * MPTCPEfficiency, nil
}

// Sample is one 0.5-second iPerf report: time and summed bidirectional
// core bandwidth in Gbps.
type Sample struct {
	T             float64
	CoreBandwidth float64
}

// ScheduleEntry converts the network to Mode at time At (seconds).
type ScheduleEntry struct {
	At   float64
	Mode core.Mode
}

// ConversionEvent records one conversion during an iPerf run.
type ConversionEvent struct {
	At        float64
	Report    *control.ConversionReport
	RecoverAt float64 // when throughput is back to maximum
}

// RunIPerf emulates the Figure 10 experiment: persistent counterpart
// traffic for duration seconds, sampled every interval, with topology
// conversions at the scheduled times. During a conversion throughput drops
// to zero for the conversion delay, then ramps linearly over RampDuration.
func (tb *Testbed) RunIPerf(schedule []ScheduleEntry, duration, interval float64) ([]Sample, []ConversionEvent, error) {
	if interval <= 0 || duration <= 0 {
		return nil, nil, fmt.Errorf("testbed: bad duration %v / interval %v", duration, interval)
	}
	steady, err := tb.steadyCoreBandwidth()
	if err != nil {
		return nil, nil, err
	}
	var events []ConversionEvent
	next := 0
	var samples []Sample
	for t := 0.0; t <= duration+1e-9; t += interval {
		// Apply any due conversions.
		for next < len(schedule) && schedule[next].At <= t {
			tb.Ctrl.SetRecordClock(schedule[next].At)
			rep, _, err := tb.Convert(schedule[next].Mode)
			if err != nil {
				return nil, nil, err
			}
			steady, err = tb.steadyCoreBandwidth()
			if err != nil {
				return nil, nil, err
			}
			events = append(events, ConversionEvent{
				At:        schedule[next].At,
				Report:    rep,
				RecoverAt: schedule[next].At + rep.Total + RampDuration,
			})
			next++
		}
		factor := 1.0
		if len(events) > 0 {
			e := events[len(events)-1]
			switch {
			case t < e.At+e.Report.Total:
				factor = 0 // rules in flux: traffic stalled
			case t < e.RecoverAt:
				factor = (t - e.At - e.Report.Total) / RampDuration
			}
		}
		samples = append(samples, Sample{T: t, CoreBandwidth: steady * factor})
	}
	return samples, events, nil
}

// SteadyBandwidth converts the network to the given mode and returns the
// steady-state core bandwidth — the plateau levels of Figure 10.
func (tb *Testbed) SteadyBandwidth(mode core.Mode) (float64, error) {
	if _, _, err := tb.Convert(mode); err != nil {
		return 0, err
	}
	return tb.steadyCoreBandwidth()
}
