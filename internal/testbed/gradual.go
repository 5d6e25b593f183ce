package testbed

import (
	"fmt"
	"math"

	"flattree/internal/core"
	"flattree/internal/flowsim"
	"flattree/internal/routing"
)

// Gradual conversion on the testbed (§4.3): instead of reconfiguring every
// pod at once — which stalls all traffic for the conversion delay — pods
// convert in batches. While a batch converts, only flows touching its pods
// are drained; the rest keep flowing over the intermediate hybrid
// topology. This file measures the §4.3 claim that incremental draining
// "can be used to avoid traffic disruption".

// GradualSample is one bandwidth sample during a gradual conversion run.
type GradualSample struct {
	T             float64
	CoreBandwidth float64
	// ConvertingPod is the pod in flux at this sample, or -1.
	ConvertingPod int
}

// GradualRun summarizes one conversion strategy's timeline.
type GradualRun struct {
	Samples []GradualSample
	// MinBandwidth is the lowest core bandwidth observed from the first
	// step until full recovery.
	MinBandwidth float64
	// Duration is the time from the first step to full recovery.
	Duration float64
}

// steadyExcludingPods computes the iPerf core bandwidth with every flow
// touching the given pods drained (paused).
func (tb *Testbed) steadyExcludingPods(excluded map[int]bool) (float64, error) {
	r := tb.Ctrl.Realization()
	table := tb.Ctrl.Table()
	caps := routing.DirectedCaps(r.Topo.G)
	servers := r.Topo.Servers()
	perPod := tb.Ctrl.Network().Clos().EdgesPerPod * tb.Ctrl.Network().Clos().ServersPerEdge
	var specs []flowsim.ConnSpec
	for _, pr := range tb.IPerfPairs() {
		if excluded[pr[0]/perPod] || excluded[pr[1]/perPod] {
			continue
		}
		specs = append(specs, flowsim.ConnSpec{
			Paths: table.ServerSlots(servers[pr[0]], servers[pr[1]]),
			Bits:  math.Inf(1),
		})
	}
	if len(specs) == 0 {
		return 0, nil
	}
	rates, err := flowsim.StaticRates(caps, specs, 10)
	if err != nil {
		return 0, err
	}
	var total float64
	for _, rt := range rates {
		total += rt
	}
	return total * MPTCPEfficiency, nil
}

// RunGradualConversion converts the testbed to the target mode one pod at
// a time, sampling core bandwidth every interval. Each step drains the
// converting pod's flows for the step's conversion delay plus the MPTCP
// ramp, while the remaining flows run on the hybrid topology.
func (tb *Testbed) RunGradualConversion(target core.Mode, interval float64) (*GradualRun, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("testbed: interval %v", interval)
	}
	pods := tb.Ctrl.Network().Clos().Pods
	run := &GradualRun{MinBandwidth: math.Inf(1)}
	t := 0.0
	record := func(bw float64, pod int) {
		run.Samples = append(run.Samples, GradualSample{T: t, CoreBandwidth: bw, ConvertingPod: pod})
		if bw < run.MinBandwidth {
			run.MinBandwidth = bw
		}
		t += interval
	}

	for pod := 0; pod < pods; pod++ {
		modes := tb.Ctrl.Network().PodModes()
		if modes[pod] == target {
			continue
		}
		modes[pod] = target
		rep, err := tb.Ctrl.ConvertPods(modes)
		if err != nil {
			return nil, err
		}
		if _, err := tb.OCS.Program(tb.Ctrl.Network().Converters()); err != nil {
			return nil, err
		}
		// During this step's outage window, the pod's flows are drained
		// and the rest run on the new hybrid state.
		partial, err := tb.steadyExcludingPods(map[int]bool{pod: true})
		if err != nil {
			return nil, err
		}
		window := rep.Total + RampDuration
		for elapsed := 0.0; elapsed < window; elapsed += interval {
			record(partial, pod)
		}
	}
	// Full recovery on the final topology.
	full, err := tb.steadyCoreBandwidth()
	if err != nil {
		return nil, err
	}
	record(full, -1)
	run.Duration = t
	return run, nil
}

// RunAtomicConversion performs the all-at-once conversion for comparison:
// every flow stalls for the conversion delay, then ramps.
func (tb *Testbed) RunAtomicConversion(target core.Mode, interval float64) (*GradualRun, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("testbed: interval %v", interval)
	}
	rep, _, err := tb.Convert(target)
	if err != nil {
		return nil, err
	}
	full, err := tb.steadyCoreBandwidth()
	if err != nil {
		return nil, err
	}
	run := &GradualRun{MinBandwidth: math.Inf(1)}
	t := 0.0
	window := rep.Total + RampDuration
	for elapsed := 0.0; elapsed < window; elapsed += interval {
		factor := 0.0
		if elapsed > rep.Total {
			factor = (elapsed - rep.Total) / RampDuration
		}
		bw := full * factor
		run.Samples = append(run.Samples, GradualSample{T: t, CoreBandwidth: bw, ConvertingPod: -2})
		if bw < run.MinBandwidth {
			run.MinBandwidth = bw
		}
		t += interval
	}
	run.Samples = append(run.Samples, GradualSample{T: t, CoreBandwidth: full, ConvertingPod: -1})
	run.Duration = t + interval
	return run, nil
}
