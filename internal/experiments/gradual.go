package experiments

import (
	"flattree/internal/core"
	"flattree/internal/metrics"
	"flattree/internal/testbed"
)

// The gradual-conversion study quantifies §4.3's disruption-avoidance:
// converting pod by pod with per-pod draining versus the atomic
// conversion of Figure 10.

// GradualRow compares one strategy.
type GradualRow struct {
	Strategy string
	// FloorGbps is the lowest core bandwidth during the conversion.
	FloorGbps float64
	// Duration is first-step to full recovery, seconds.
	Duration float64
	// PlateauGbps is the final (global-mode) bandwidth.
	PlateauGbps float64
}

// AblationGradual runs Clos -> global both ways on the emulated testbed.
func (c Config) AblationGradual() ([]GradualRow, error) {
	var rows []GradualRow
	for _, strategy := range []string{"atomic", "gradual (1 pod/step)"} {
		tb, err := c.newTestbed()
		if err != nil {
			return nil, err
		}
		var run *testbed.GradualRun
		if strategy == "atomic" {
			run, err = tb.RunAtomicConversion(core.ModeGlobal, 0.5)
		} else {
			run, err = tb.RunGradualConversion(core.ModeGlobal, 0.5)
		}
		if err != nil {
			return nil, err
		}
		rows = append(rows, GradualRow{
			Strategy:    strategy,
			FloorGbps:   run.MinBandwidth,
			Duration:    run.Duration,
			PlateauGbps: run.Samples[len(run.Samples)-1].CoreBandwidth,
		})
	}
	return rows, nil
}

// RenderAblationGradual formats the comparison.
func RenderAblationGradual(rows []GradualRow) string {
	t := &metrics.Table{Header: []string{"strategy", "bandwidth floor (Gbps)", "conversion duration (s)", "final plateau (Gbps)"}}
	for _, r := range rows {
		t.Add(r.Strategy, r.FloorGbps, r.Duration, r.PlateauGbps)
	}
	return t.String()
}
