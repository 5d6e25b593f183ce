// Package control implements the flat-tree control system of §4: a
// logically centralized controller that owns the converter switch
// configurations, converts the topology between modes, recomputes
// k-shortest-path routing, and accounts for the conversion delay — the OCS
// reconfiguration plus OpenFlow rule deletion and installation the testbed
// measures in Table 3.
package control

import (
	"fmt"
	"maps"
	"math"
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
	// RouteComputeTime is the measured wall time spent computing the
	// k-shortest-path table for the new topology; zero when the table
	// came from the §4.3 precomputed store ("the paths and the resulting
	// network states can also be precomputed and stored into a table in
	// memory to save the computation time"). It is reported separately
	// and not part of Total, which models only the data-plane update.
	RouteComputeTime float64
	// FromCache reports whether the routing state was precomputed.
	FromCache bool
}

// Controller manages a flat-tree network's converter switches and routing
// state.
type Controller struct {
	nw    *core.Network
	delay DelayModel
	// K is the number of concurrent paths used per mode (§4.2.1 allows a
	// different k per topology mode).
	K map[core.Mode]int

	realization *core.Realization
	table       *routing.Table
	rules       map[int]int // current per-switch rule count
	configs     []core.Config
	// failed masks broken links by endpoint pair (§4.3 failure handling).
	failed map[[2]int]int
	// routeCache holds precomputed routing state per uniform mode (§4.3);
	// invalidated by link failures/repairs.
	routeCache map[core.Mode]*cachedRoutes
	// lastCompute and lastFromCache record the most recent reinstall's
	// route-computation cost for conversion reports.
	lastCompute   float64
	lastFromCache bool
	// rec, when set, receives each conversion's phase breakdown as
	// sim-time flight-recorder events; recClock positions them (see
	// SetRecordClock).
	rec      *recorder.Track
	recClock float64
}

// cachedRoutes is one mode's precomputed routing state.
type cachedRoutes struct {
	realization *core.Realization
	table       *routing.Table
	rules       map[int]int
}

// NewController initializes the controller in the network's current mode
// and installs its routing state. kByMode maps each mode to its k; missing
// modes default to 4.
func NewController(nw *core.Network, delay DelayModel, kByMode map[core.Mode]int) (*Controller, error) {
	c := &Controller{nw: nw, delay: delay, K: make(map[core.Mode]int),
		failed: make(map[[2]int]int), routeCache: make(map[core.Mode]*cachedRoutes)}
	for _, m := range []core.Mode{core.ModeClos, core.ModeLocal, core.ModeGlobal} {
		c.K[m] = 4
		if k, ok := kByMode[m]; ok {
			if k < 1 {
				return nil, fmt.Errorf("control: k=%d for mode %v", k, m)
			}
			c.K[m] = k
		}
	}
	if err := c.reinstall(); err != nil {
		return nil, err
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

// reinstall realizes the current converter configuration, masks failed
// links, and rebuilds routing state. It fails when the surviving topology
// is partitioned.
func (c *Controller) reinstall() error {
	c.lastCompute = 0
	c.lastFromCache = false
	// Uniform, failure-free modes can come from the precomputed store.
	if mode, uniform := c.nw.Mode(); uniform && len(c.failed) == 0 {
		if cached, ok := c.routeCache[mode]; ok {
			c.realization = cached.realization
			c.table = cached.table
			c.rules = cached.rules
			c.configs = configsOf(c.nw)
			c.lastFromCache = true
			telemetry.C("control_route_cache_hits_total").Inc()
			return nil
		}
	}
	telemetry.C("control_route_cache_misses_total").Inc()
	r := c.nw.Realize()
	pruned, err := pruneFailures(r.Topo, c.failed)
	if err != nil {
		return err
	}
	if pruned != r.Topo {
		degraded := *r
		degraded.Topo = pruned
		r = &degraded
	}
	c.realization = r
	start := time.Now()
	c.table = routing.BuildKShortest(c.realization.Topo, c.kForCurrent())
	c.lastCompute = time.Since(start).Seconds()
	telemetry.H("control_route_compute_seconds").Observe(c.lastCompute)
	c.rules = c.table.PrefixRulesPerSwitch()
	c.configs = configsOf(c.nw)
	return nil
}

// PrecomputeRoutes builds and stores the routing state of every uniform
// mode ahead of time (§4.3), so later conversions skip the k-shortest-path
// computation entirely. The cache is dropped on link failures and repairs,
// which change the graph.
func (c *Controller) PrecomputeRoutes() error {
	if len(c.failed) > 0 {
		return fmt.Errorf("control: cannot precompute with %d failed links", len(c.failed))
	}
	saved := c.nw.PodModes()
	for _, m := range []core.Mode{core.ModeClos, core.ModeLocal, core.ModeGlobal} {
		c.nw.SetMode(m)
		r := c.nw.Realize()
		table := routing.BuildKShortest(r.Topo, c.K[m])
		c.routeCache[m] = &cachedRoutes{
			realization: r, table: table, rules: table.PrefixRulesPerSwitch(),
		}
	}
	for pod, m := range saved {
		if err := c.nw.SetPodMode(pod, m); err != nil {
			return err
		}
	}
	return c.reinstall()
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

// Realization returns the currently installed topology.
func (c *Controller) Realization() *core.Realization { return c.realization }

// Table returns the currently installed route table.
func (c *Controller) Table() *routing.Table { return c.table }

// RulesPerSwitch returns the installed per-switch rule counts.
func (c *Controller) RulesPerSwitch() map[int]int {
	out := make(map[int]int, len(c.rules))
	maps.Copy(out, c.rules)
	return out
}

// MaxRulesPerSwitch returns the largest per-switch rule count — the §5.3
// figure of merit (242/180/76 on the testbed).
func (c *Controller) MaxRulesPerSwitch() int {
	max := 0
	//flatvet:ordered integer max over values is order-independent
	for _, v := range c.rules {
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
// delay breakdown.
func (c *Controller) ConvertPods(modes []core.Mode) (*ConversionReport, error) {
	if len(modes) != c.nw.Clos().Pods {
		return nil, fmt.Errorf("control: %d modes for %d pods", len(modes), c.nw.Clos().Pods)
	}
	sp := telemetry.StartSpan("conversion", telemetry.Str("to", modesLabel(modes)))
	defer sp.End()
	from := c.nw.PodModes()
	oldConfigs := c.configs
	oldRules := c.rules

	for pod, m := range modes {
		if err := c.nw.SetPodMode(pod, m); err != nil {
			return nil, err
		}
	}
	if err := c.reinstall(); err != nil {
		// Roll back: the requested modes partition under the recorded
		// failures; restore the previous configuration.
		for pod, m := range from {
			if rerr := c.nw.SetPodMode(pod, m); rerr != nil {
				return nil, fmt.Errorf("control: conversion failed (%v) and rollback of pod %d failed (%v)", err, pod, rerr)
			}
		}
		if rerr := c.reinstall(); rerr != nil {
			return nil, fmt.Errorf("control: conversion failed (%v) and rollback failed (%v)", err, rerr)
		}
		return nil, err
	}

	rep := &ConversionReport{From: from, To: append([]core.Mode(nil), modes...)}
	for i, cfg := range c.configs {
		if cfg != oldConfigs[i] {
			rep.ConvertersReconfigured++
		}
	}
	// Rule churn: the old topology's rules are deleted, the new ones
	// added (the testbed deletes and reinstalls; unchanged rules between
	// modes are rare because paths shift with the topology).
	if c.delay.Parallel {
		//flatvet:ordered integer max over values is order-independent
		for _, n := range oldRules {
			if n > rep.RulesDeleted {
				rep.RulesDeleted = n
			}
		}
		//flatvet:ordered integer max over values is order-independent
		for _, n := range c.rules {
			if n > rep.RulesAdded {
				rep.RulesAdded = n
			}
		}
	} else {
		//flatvet:ordered integer sum is order-independent
		for _, n := range oldRules {
			rep.RulesDeleted += n
		}
		//flatvet:ordered integer sum is order-independent
		for _, n := range c.rules {
			rep.RulesAdded += n
		}
	}
	rep.OCSTime = c.delay.OCSReconfig
	rep.DeleteTime = float64(rep.RulesDeleted) * c.delay.PerRuleDelete
	rep.AddTime = float64(rep.RulesAdded) * c.delay.PerRuleAdd
	rep.Total = rep.OCSTime + rep.DeleteTime + rep.AddTime
	rep.RampTime = c.delay.Ramp
	rep.RouteComputeTime = c.lastCompute
	rep.FromCache = c.lastFromCache

	// Table 3 as a trace: one modeled-duration child span per conversion
	// phase, rule churn attached where it drives the phase length.
	sp.SetAttr(
		telemetry.Str("from", modesLabel(from)),
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

// ShardEstimate models the distributed-controller option of §4.3: with the
// state distribution spread over nControllers, the rule install time
// shrinks proportionally (path computation parallelizes trivially).
func (c *Controller) ShardEstimate(rep *ConversionReport, nControllers int) float64 {
	if nControllers < 1 {
		nControllers = 1
	}
	return rep.OCSTime + (rep.DeleteTime+rep.AddTime)/float64(nControllers)
}
