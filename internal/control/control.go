// Package control implements the flat-tree control system of §4: a
// logically centralized controller that owns the converter switch
// configurations, converts the topology between modes, recomputes
// k-shortest-path routing, and accounts for the conversion delay — the OCS
// reconfiguration plus OpenFlow rule deletion and installation the testbed
// measures in Table 3.
package control

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"flattree/internal/core"
	"flattree/internal/recorder"
	"flattree/internal/routing"
	"flattree/internal/telemetry"
)

// DelayModel captures the testbed's conversion latency components. Times
// are in seconds.
type DelayModel struct {
	// OCSReconfig is the flat optical-circuit-switch reconfiguration time
	// (the testbed's 3D-MEMS OCS takes 160 ms regardless of how many
	// logical converter partitions change).
	OCSReconfig float64
	// PerRuleDelete and PerRuleAdd are per-OpenFlow-rule latencies; the
	// testbed's legacy switches process roughly a rule per millisecond
	// and are driven sequentially (§5.3).
	PerRuleDelete float64
	PerRuleAdd    float64
	// Parallel models the §5.3 improvement of configuring switches in
	// parallel: rule time is then driven by the busiest switch instead of
	// the total.
	Parallel bool
	// Ramp is the modeled time for transport throughput to regrow after
	// the new rules land (MPTCP slow-start recovery, Figure 10's 2–2.5 s
	// to maximum). It is reported in conversion traces and reports but is
	// not part of Total, which models only the data-plane update.
	Ramp float64
}

// BadDuration finds the first duration of a failure reaction that is
// NaN, infinite or negative — the detection latency, then d's four
// durations in field order — and returns it with its config field name
// ("Detection", "Delay.OCSReconfig", ...). A NaN duration makes every
// reaction time NaN; a negative one lands a reroute before the failure
// that causes it. bad is false when every duration is usable; zero is.
func BadDuration(detection float64, d DelayModel) (field string, v float64, bad bool) {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"Detection", detection},
		{"Delay.OCSReconfig", d.OCSReconfig},
		{"Delay.PerRuleDelete", d.PerRuleDelete},
		{"Delay.PerRuleAdd", d.PerRuleAdd},
		{"Delay.Ramp", d.Ramp},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
			return f.name, f.v, true
		}
	}
	return "", 0, false
}

// TestbedDelayModel returns the delay constants calibrated to Table 3:
// with the example network's rule totals (≈1.2k Clos / 4.7k local / 7.2k
// global across all switches) and ≈0.1 ms per batched rule operation,
// conversions complete in roughly one second, matching §5.3.
func TestbedDelayModel() DelayModel {
	return DelayModel{OCSReconfig: 0.160, PerRuleDelete: 0.000090, PerRuleAdd: 0.000090, Ramp: 1.2}
}

// ConversionReport breaks down one topology conversion (Table 3's rows).
type ConversionReport struct {
	From, To []core.Mode
	// ConvertersReconfigured counts converter switches whose
	// configuration changed.
	ConvertersReconfigured int
	// RulesDeleted and RulesAdded count OpenFlow rules across switches.
	RulesDeleted, RulesAdded int
	// OCSTime, DeleteTime, AddTime, Total are the latency components in
	// seconds (Total = OCS + Delete + Add, sequential as on the testbed).
	OCSTime, DeleteTime, AddTime, Total float64
	// RampTime is the modeled transport-throughput regrow time after the
	// rules land (DelayModel.Ramp); reported but excluded from Total.
	RampTime float64
	// RouteComputeTime is the measured wall time spent installing routing
	// state for the new topology: taking its k-shortest-path table and
	// masking the recorded failures on it. A mode every pod shares takes
	// its table from the shared route cache, so a repeat conversion costs
	// a lookup (§4.3: "the paths and the resulting network states can
	// also be precomputed and stored into a table in memory to save the
	// computation time"). It is reported separately and not part of
	// Total, which models only the data-plane update.
	RouteComputeTime float64
}

// Controller manages a flat-tree network's converter switches and routing
// state.
type Controller struct {
	nw    *core.Network
	delay DelayModel
	// K is the number of concurrent paths used per mode (§4.2.1 allows a
	// different k per topology mode).
	K map[core.Mode]int

	// realization is the healthy realization of the current modes; inc
	// holds its route table and the failure record (§4.3 failure
	// handling; see failures.go). Each reinstall replaces both; link
	// events mutate inc.
	realization *core.Realization
	inc         *routing.IncrementalTable
	// table is a frozen copy of inc's view, taken after every change of
	// state, that Table returns.
	table *routing.Table
	// lastCompute is the most recent reinstall's route-installation time
	// for conversion reports.
	lastCompute float64
	// rec, when set, receives each conversion's phase breakdown as
	// sim-time flight-recorder events; recClock positions them (see
	// SetRecordClock).
	rec      *recorder.Track
	recClock float64
}

// NewController initializes the controller in the network's current mode
// and installs its routing state. kByMode maps each mode to its k; missing
// modes default to 4. It reports the lowest key that is not a mode or
// maps to a k below 1.
func NewController(nw *core.Network, delay DelayModel, kByMode map[core.Mode]int) (*Controller, error) {
	c := &Controller{nw: nw, delay: delay, K: map[core.Mode]int{core.ModeClos: 4, core.ModeLocal: 4, core.ModeGlobal: 4}}
	var modes []core.Mode
	for m := range kByMode {
		modes = append(modes, m)
	}
	slices.Sort(modes)
	for _, m := range modes {
		if err := core.CheckMode(m); err != nil {
			return nil, fmt.Errorf("control: kByMode: %w", err)
		}
		if kByMode[m] < 1 {
			return nil, fmt.Errorf("control: k=%d for mode %v", kByMode[m], m)
		}
		c.K[m] = kByMode[m]
	}
	if err := c.reinstall(nil); err != nil {
		return nil, fmt.Errorf("control: %w", err)
	}
	return c, nil
}

// kForCurrent picks the routing k: the (maximum) k over the pod modes in
// use, so hybrid networks route with enough path diversity for their most
// demanding zone.
func (c *Controller) kForCurrent() int {
	k := 1
	for _, m := range c.nw.PodModes() {
		if c.K[m] > k {
			k = c.K[m]
		}
	}
	return k
}

// reinstall realizes the current converter configuration and installs its
// routing state: the healthy route table, taken from the shared route
// cache when every pod runs the same mode, with the failure record masked
// on it in one batch. It runs at start-up and on conversions; link events
// go through the installed table. When the masked links partition the
// fabric it returns an error and leaves the installed state as it was.
func (c *Controller) reinstall(record [][3]int) error {
	r := c.nw.Realize()
	start := time.Now()
	var base *routing.Table
	if _, uniform := c.nw.Mode(); uniform {
		base = routing.BuildKShortestCached(r.Topo, c.kForCurrent())
	} else {
		// Hybrid tables stay out of the shared cache: a resident daemon
		// quoting many mode vectors would fill it with one table each.
		base = routing.BuildKShortest(r.Topo, c.kForCurrent())
	}
	inc := routing.NewIncremental(base, record)
	if node, cut := inc.CutOff(); cut {
		return fmt.Errorf("node %d is cut off from node 0", node)
	}
	c.lastCompute = time.Since(start).Seconds()
	telemetry.H("control_route_compute_seconds").Observe(c.lastCompute)
	c.realization, c.inc = r, inc
	c.publish()
	return nil
}

// publish freezes the installed table for Table. An event replaces a
// pair's path slice and never edits one in place, so a copy of Paths
// suffices.
func (c *Controller) publish() {
	c.table = c.inc.View()
	c.table.Paths = slices.Clone(c.table.Paths)
}

func configsOf(nw *core.Network) []core.Config {
	convs := nw.Converters()
	out := make([]core.Config, len(convs))
	for i, cv := range convs {
		out[i] = cv.Config
	}
	return out
}

// Network returns the managed network.
func (c *Controller) Network() *core.Network { return c.nw }

// Realization returns the healthy realization of the current modes.
// Recorded link failures are masked in Table, not removed from this
// topology.
func (c *Controller) Realization() *core.Realization { return c.realization }

// Table returns the installed route table, recorded failures masked. The
// returned table does not change when the controller installs new state.
func (c *Controller) Table() *routing.Table { return c.table }

// MaxRulesPerSwitch returns the largest per-switch rule count — the §5.3
// figure of merit (242/180/76 on the testbed).
func (c *Controller) MaxRulesPerSwitch() int {
	max := 0
	//flatvet:ordered integer max over values is order-independent
	for _, v := range c.inc.RulesPerSwitch() {
		if v > max {
			max = v
		}
	}
	return max
}

// Convert switches the whole network to the given mode, returning the
// delay breakdown.
func (c *Controller) Convert(mode core.Mode) (*ConversionReport, error) {
	modes := make([]core.Mode, c.nw.Clos().Pods)
	for i := range modes {
		modes[i] = mode
	}
	return c.ConvertPods(modes)
}

// ConvertPods switches per-pod modes (hybrid operation) and returns the
// delay breakdown. The conversion is performed: it is traced as a
// conversion span with one modeled child per phase, recorded on the
// flight-recorder track, and counted.
func (c *Controller) ConvertPods(modes []core.Mode) (*ConversionReport, error) {
	sp := telemetry.StartSpan("conversion", telemetry.Str("to", modesLabel(modes)))
	defer sp.End()
	rep, _, err := c.convert(modes)
	if err != nil {
		return nil, err
	}
	// Table 3 as a trace: one modeled-duration child span per conversion
	// phase, rule churn attached where it drives the phase length.
	sp.SetAttr(
		telemetry.Str("from", modesLabel(rep.From)),
		telemetry.Int("converters_reconfigured", rep.ConvertersReconfigured),
		telemetry.Float("modeled_total_seconds", rep.Total),
	)
	sp.Record("ocs", rep.OCSTime)
	sp.Record("rule-delete", rep.DeleteTime, telemetry.Int("rules_deleted", rep.RulesDeleted))
	sp.Record("rule-add", rep.AddTime, telemetry.Int("rules_added", rep.RulesAdded))
	sp.Record("ramp", rep.RampTime)
	c.recordPhases(rep)
	telemetry.C("control_conversions_total").Inc()
	telemetry.C("control_rules_deleted_total").Add(int64(rep.RulesDeleted))
	telemetry.C("control_rules_added_total").Add(int64(rep.RulesAdded))
	return rep, nil
}

// convert sets the per-pod modes, reinstalls routing state and prices the
// change: the report and the per-switch rule churn (the old mode's rules
// deleted, the new mode's added, as the testbed deletes and reinstalls;
// unchanged rules between modes are rare because paths shift with the
// topology). When the new modes would partition the fabric under the
// recorded failures, the previous modes are restored and it errors. It
// emits nothing: ConvertPods performs a conversion, QuotePodModes only
// prices one.
func (c *Controller) convert(modes []core.Mode) (*ConversionReport, routing.RuleDelta, error) {
	if len(modes) != c.nw.Clos().Pods {
		return nil, routing.RuleDelta{}, fmt.Errorf("control: %d modes for %d pods", len(modes), c.nw.Clos().Pods)
	}
	from, oldConfigs, old := c.nw.PodModes(), configsOf(c.nw), c.inc
	if err := c.setModes(modes); err != nil {
		return nil, routing.RuleDelta{}, err
	}
	if err := c.reinstall(c.inc.Failed()); err != nil {
		// Restoring the realized from cannot fail; Join handles it anyway.
		return nil, routing.RuleDelta{}, errors.Join(
			fmt.Errorf("control: converting to %s would partition the network: %w", modesLabel(modes), err),
			c.setModes(from))
	}

	rep := &ConversionReport{From: from, To: append([]core.Mode(nil), modes...)}
	for i, cfg := range configsOf(c.nw) {
		if cfg != oldConfigs[i] {
			rep.ConvertersReconfigured++
		}
	}
	delta := routing.RuleDelta{Adds: c.inc.RulesPerSwitch(), Dels: old.RulesPerSwitch()}
	if c.delay.Parallel {
		rep.RulesDeleted, rep.RulesAdded = delta.MaxDels(), delta.MaxAdds()
	} else {
		rep.RulesDeleted, rep.RulesAdded = delta.TotalDels(), delta.TotalAdds()
	}
	rep.OCSTime = c.delay.OCSReconfig
	rep.DeleteTime = float64(rep.RulesDeleted) * c.delay.PerRuleDelete
	rep.AddTime = float64(rep.RulesAdded) * c.delay.PerRuleAdd
	rep.Total = rep.OCSTime + rep.DeleteTime + rep.AddTime
	rep.RampTime = c.delay.Ramp
	rep.RouteComputeTime = c.lastCompute
	return rep, delta, nil
}

// setModes assigns every pod its mode. It checks every mode before it
// sets any, so an invalid one leaves the network as it was.
func (c *Controller) setModes(modes []core.Mode) error {
	for _, m := range modes {
		if err := core.CheckMode(m); err != nil {
			return err
		}
	}
	for pod, m := range modes {
		if err := c.nw.SetPodMode(pod, m); err != nil {
			return err
		}
	}
	return nil
}

// SetRecorder directs each conversion's phase breakdown onto a flight-
// recorder track. Concurrent controllers must use distinct tracks; a nil
// track disables emission.
func (c *Controller) SetRecorder(tr *recorder.Track) { c.rec = tr }

// SetRecordClock positions the NEXT conversion's phases at sim time t.
// The controller has no clock of its own — conversions are priced, not
// scheduled — so the caller that knows when a conversion fires (the
// testbed's iperf schedule, an experiment loop) supplies the instant.
// Without a call, conversions stack back to back from zero.
func (c *Controller) SetRecordClock(t float64) { c.recClock = t }

// recordPhases emits the conversion's four phases as modeled slices at
// the record clock and advances the clock past the ramp.
func (c *Controller) recordPhases(rep *ConversionReport) {
	if c.rec == nil {
		return
	}
	t := c.recClock
	phases := []struct {
		label string
		dur   float64
		a     int64
	}{
		{"ocs", rep.OCSTime, int64(rep.ConvertersReconfigured)},
		{"rule_delete", rep.DeleteTime, int64(rep.RulesDeleted)},
		{"rule_add", rep.AddTime, int64(rep.RulesAdded)},
		{"ramp", rep.RampTime, 0},
	}
	for _, ph := range phases {
		c.rec.Emit(recorder.Event{T: t, Kind: recorder.ConversionPhase, V: ph.dur, A: ph.a, Label: ph.label})
		t += ph.dur
	}
	c.recClock = t
}

// modesLabel renders a pod-mode vector compactly: the single mode name
// when uniform, otherwise the per-pod list.
func modesLabel(modes []core.Mode) string {
	if len(modes) == 0 {
		return ""
	}
	uniform := true
	for _, m := range modes[1:] {
		if m != modes[0] {
			uniform = false
			break
		}
	}
	if uniform {
		return modes[0].String()
	}
	out := ""
	for i, m := range modes {
		if i > 0 {
			out += ","
		}
		out += m.String()
	}
	return out
}
