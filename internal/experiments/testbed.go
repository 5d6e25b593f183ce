package experiments

import (
	"fmt"

	"flattree/internal/addressing"
	"flattree/internal/apps"
	"flattree/internal/core"
	"flattree/internal/metrics"
	"flattree/internal/recorder"
	"flattree/internal/sdn"
	"flattree/internal/testbed"
	"flattree/internal/traffic"
)

// Fig5 reproduces the addressing example of Figure 5c: the IP addresses of
// a server attached to switch 3 / 8 / 5 under global / local / Clos modes
// with k = 16 / 8 / 4.
func (c Config) Fig5() (string, error) {
	t := &metrics.Table{Header: []string{"Topology ID", "Switch ID", "Server ID", "k", "IP addresses"}}
	for _, row := range []struct {
		topoID, switchID, serverID, k int
	}{
		{0, 3, 2, 16},
		{1, 8, 1, 8},
		{2, 5, 0, 4},
	} {
		addrs, err := addressing.AddressesFor(row.switchID, row.serverID, row.topoID, row.k)
		if err != nil {
			return "", err
		}
		list := ""
		for i, a := range addrs {
			if i > 0 {
				list += " "
			}
			list += a.String()
		}
		t.Add(row.topoID, row.switchID, row.serverID, row.k, list)
	}
	return t.String(), nil
}

// Fig10Result is the testbed iPerf experiment output.
type Fig10Result struct {
	Samples []testbed.Sample
	Events  []testbed.ConversionEvent
	// Plateaus records the steady bandwidth per mode.
	Plateaus map[core.Mode]float64
}

// Fig10 reproduces the Figure 10 experiment: a 5-minute iPerf run on the
// emulated testbed with conversions Clos -> global -> local -> Clos ->
// global, sampled every 0.5 s.
func (c Config) Fig10() (*Fig10Result, error) {
	tb, err := testbed.New()
	if err != nil {
		return nil, err
	}
	tb.Ctrl.SetRecorder(recorder.T("fig10/conversions"))
	schedule := []testbed.ScheduleEntry{
		{At: 60, Mode: core.ModeGlobal},
		{At: 120, Mode: core.ModeLocal},
		{At: 180, Mode: core.ModeClos},
		{At: 240, Mode: core.ModeGlobal},
	}
	samples, events, err := tb.RunIPerf(schedule, 300, 0.5)
	if err != nil {
		return nil, err
	}
	res := &Fig10Result{Samples: samples, Events: events, Plateaus: map[core.Mode]float64{}}
	tb2, err := testbed.New()
	if err != nil {
		return nil, err
	}
	for _, m := range sortedModes() {
		bw, err := tb2.SteadyBandwidth(m)
		if err != nil {
			return nil, err
		}
		res.Plateaus[m] = bw
	}
	return res, nil
}

// Render summarizes plateaus, recovery times, and the headline gain.
func (r *Fig10Result) Render() string {
	t := &metrics.Table{Header: []string{"mode", "steady core bandwidth (Gbps)"}}
	for _, m := range sortedModes() {
		t.Add(m.String(), r.Plateaus[m])
	}
	out := t.String()
	gain := r.Plateaus[core.ModeGlobal]/r.Plateaus[core.ModeClos] - 1
	out += fmt.Sprintf("\nglobal vs Clos core bandwidth gain: %.1f%% (paper: 27.6%%)\n", gain*100)
	et := &metrics.Table{Header: []string{"conversion at (s)", "to", "conversion delay (s)", "traffic recovered by (s)"}}
	for _, e := range r.Events {
		to := core.ModeClos
		if len(e.Report.To) > 0 {
			to = e.Report.To[0]
		}
		et.Add(e.At, to.String(), e.Report.Total, e.RecoverAt)
	}
	return out + et.String()
}

// Table3Row is one conversion delay measurement.
type Table3Row struct {
	Target                                 core.Mode
	OCS, DeleteRules, AddRules, Total      float64
	RulesDeleted, RulesAdded, MaxPerSwitch int
}

// Table3 reproduces the conversion delay breakdown: starting from the
// Figure 10 cycle, converting to global, local, and Clos in turn.
func (c Config) Table3() ([]Table3Row, error) {
	tb, err := testbed.New()
	if err != nil {
		return nil, err
	}
	tb.Ctrl.SetRecorder(recorder.T("table3/conversions"))
	var rows []Table3Row
	for _, m := range []core.Mode{core.ModeGlobal, core.ModeLocal, core.ModeClos} {
		rep, err := tb.Ctrl.Convert(m)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table3Row{
			Target: m, OCS: rep.OCSTime, DeleteRules: rep.DeleteTime,
			AddRules: rep.AddTime, Total: rep.Total,
			RulesDeleted: rep.RulesDeleted, RulesAdded: rep.RulesAdded,
			MaxPerSwitch: tb.Ctrl.MaxRulesPerSwitch(),
		})
	}
	return rows, nil
}

// RenderTable3 formats the rows like the paper's Table 3.
func RenderTable3(rows []Table3Row) string {
	t := &metrics.Table{Header: []string{"Topology", "Configure OCS", "Delete rule", "Add rule", "Total", "max rules/switch"}}
	for _, r := range rows {
		t.Add(r.Target.String(),
			fmt.Sprintf("%.0fms", r.OCS*1000), fmt.Sprintf("%.0fms", r.DeleteRules*1000),
			fmt.Sprintf("%.0fms", r.AddRules*1000), fmt.Sprintf("%.0fms", r.Total*1000),
			r.MaxPerSwitch)
	}
	return t.String()
}

// Fig11Result compares the Spark broadcast and Hadoop shuffle applications
// across modes.
type Fig11Result struct {
	Spark  map[core.Mode]apps.Result
	Hadoop map[core.Mode]apps.Result
}

// Fig11 reproduces §5.4: Word2Vec broadcast (torrent) and Tez Sort shuffle
// on the emulated testbed under the three modes.
func (c Config) Fig11() (*Fig11Result, error) {
	tb, err := testbed.New()
	if err != nil {
		return nil, err
	}
	spark, err := apps.CompareModes(func(m core.Mode) (apps.Result, error) {
		return apps.SparkBroadcast(tb, m, 2*traffic.GB, 1)
	})
	if err != nil {
		return nil, err
	}
	hadoop, err := apps.CompareModes(func(m core.Mode) (apps.Result, error) {
		return apps.HadoopShuffle(tb, m, 4*traffic.GB, 16)
	})
	if err != nil {
		return nil, err
	}
	return &Fig11Result{Spark: spark, Hadoop: hadoop}, nil
}

// Render formats both applications.
func (r *Fig11Result) Render() string {
	t := &metrics.Table{Header: []string{"app", "mode", "data read (s)", "phase duration (s)"}}
	for _, m := range sortedModes() {
		t.Add("Spark broadcast", m.String(), r.Spark[m].ReadDuration, r.Spark[m].PhaseDuration)
	}
	for _, m := range sortedModes() {
		t.Add("Hadoop shuffle", m.String(), r.Hadoop[m].ReadDuration, r.Hadoop[m].PhaseDuration)
	}
	out := t.String()
	sparkGain := 1 - r.Spark[core.ModeGlobal].ReadDuration/r.Spark[core.ModeClos].ReadDuration
	hadoopGain := 1 - r.Hadoop[core.ModeGlobal].ReadDuration/r.Hadoop[core.ModeClos].ReadDuration
	out += fmt.Sprintf("\nread-time reduction global vs Clos: Spark %.1f%% (paper 10%%), Hadoop %.1f%% (paper 10.5%%)\n",
		sparkGain*100, hadoopGain*100)
	return out
}

// RulesResult reports the §4.2/§5.3 network-state accounting per mode.
type RulesResult struct {
	Rows []RulesRow
}

// RulesRow is one mode's state accounting on the testbed.
type RulesRow struct {
	Mode                core.Mode
	Ingress             int
	MaxPrefixRules      int
	TotalPrefixRules    int
	SourceRoutedIngress int
	SourceRoutedTransit int
	// CompiledMax/CompiledTotal count the rules an actual sdn.Compile of
	// the mode's fabric installs; Naive is the per-flow explosion §4.2
	// warns about.
	CompiledMax, CompiledTotal, Naive int
}

// Rules measures the rule counts the testbed reports in §5.3 (prefix
// matching: 242/180/76 max rules per switch) and the source-routing
// alternative of §4.2.2.
func (c Config) Rules() (*RulesResult, error) {
	tb, err := testbed.New()
	if err != nil {
		return nil, err
	}
	res := &RulesResult{}
	for _, m := range sortedModes() {
		if _, err := tb.Ctrl.Convert(m); err != nil {
			return nil, err
		}
		table := tb.Ctrl.Table()
		sc := table.CountStates(48) // 48-port packet switches (Figure 9)
		total := table.TotalPrefixRules()
		realized := tb.Ctrl.Realization().Topo
		assign, err := addressing.Assign(realized, int(m), testbed.K)
		if err != nil {
			return nil, err
		}
		fabric, err := sdn.Compile(realized, table, assign, 0)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, RulesRow{
			Mode: m, Ingress: len(table.Ingress),
			MaxPrefixRules: sc.PrefixMaxPerSwitch, TotalPrefixRules: total,
			SourceRoutedIngress: sc.SourceRoutedIngress,
			SourceRoutedTransit: sc.SourceRoutedTransit,
			CompiledMax:         fabric.MaxRules(),
			CompiledTotal:       fabric.TotalRules(),
			Naive:               sdn.NaiveRuleCount(realized, table),
		})
	}
	return res, nil
}

// Render formats the rule accounting.
func (r *RulesResult) Render() string {
	t := &metrics.Table{Header: []string{
		"mode", "ingress switches", "max prefix rules/switch (paper 242/180/76)",
		"total prefix rules", "compiled max/switch", "compiled total",
		"naive per-flow total", "source-routed ingress (S*k)", "transit (D*C)",
	}}
	for _, row := range r.Rows {
		t.Add(row.Mode.String(), row.Ingress, row.MaxPrefixRules, row.TotalPrefixRules,
			row.CompiledMax, row.CompiledTotal, row.Naive,
			row.SourceRoutedIngress, row.SourceRoutedTransit)
	}
	return t.String()
}

// PropsResult reports the Property 1/2 spreads for every base topology.
type PropsResult struct {
	Rows []PropsRow
}

// PropsRow is the per-core-switch uniformity of one topology and pattern.
type PropsRow struct {
	Topology     string
	Pattern      core.Pattern
	ServerSpread int
	EdgeSpread   int
	AggSpread    int
}

// Props verifies the §3.2 wiring properties on every base topology in
// global mode for both wiring patterns, reporting the max-min spread of
// per-core servers and link types (0 = perfectly uniform).
func (c Config) Props() (*PropsResult, error) {
	res := &PropsResult{}
	for _, p := range c.baseParams() {
		for _, pat := range []core.Pattern{core.Pattern1, core.Pattern2} {
			// One (n, m) feasible under BOTH patterns keeps the
			// comparison fair.
			opt, err := flatTreeOptionsFor(p, pat, core.Pattern1, core.Pattern2)
			if err != nil {
				return nil, err
			}
			opt.Pattern = pat
			nw, err := core.New(p, opt)
			if err != nil {
				return nil, err
			}
			nw.SetMode(core.ModeGlobal)
			r := nw.Realize()
			s := core.CensusSpread(core.CensusCores(r))
			res.Rows = append(res.Rows, PropsRow{Topology: p.Name, Pattern: pat,
				ServerSpread: s.Servers, EdgeSpread: s.ToEdge, AggSpread: s.ToAgg})
		}
	}
	return res, nil
}

// Render formats the property spreads.
func (r *PropsResult) Render() string {
	t := &metrics.Table{Header: []string{"topology", "pattern", "server spread", "edge-link spread", "agg-link spread"}}
	for _, row := range r.Rows {
		t.Add(row.Topology, int(row.Pattern), row.ServerSpread, row.EdgeSpread, row.AggSpread)
	}
	return t.String()
}
