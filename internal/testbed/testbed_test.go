package testbed

import (
	"strings"
	"testing"

	"flattree/internal/core"
	"flattree/internal/telemetry"
)

func TestTestbedShape(t *testing.T) {
	tb, err := New()
	if err != nil {
		t.Fatal(err)
	}
	r := tb.Ctrl.Realization()
	// Figure 9: 20 packet switches (16 edge/agg + 4 core), 24 servers.
	switches := len(r.Topo.Edges()) + len(r.Topo.Aggs()) + len(r.Topo.Cores())
	if switches != 20 {
		t.Fatalf("switches = %d, want 20", switches)
	}
	if got := len(r.Topo.Servers()); got != 24 {
		t.Fatalf("servers = %d, want 24", got)
	}
}

func TestIPerfPairs(t *testing.T) {
	tb, _ := New()
	pairs := tb.IPerfPairs()
	// Every server sends to its counterpart in the other 3 pods: 72 flows.
	if len(pairs) != 72 {
		t.Fatalf("pairs = %d, want 72", len(pairs))
	}
	for _, p := range pairs {
		if p[0]/6 == p[1]/6 {
			t.Fatalf("pair %v stays in its pod", p)
		}
		if p[0]%6 != p[1]%6 {
			t.Fatalf("pair %v is not index counterparts", p)
		}
	}
}

func TestSteadyBandwidthPlateaus(t *testing.T) {
	tb, err := New()
	if err != nil {
		t.Fatal(err)
	}
	clos, err := tb.SteadyBandwidth(core.ModeClos)
	if err != nil {
		t.Fatal(err)
	}
	local, err := tb.SteadyBandwidth(core.ModeLocal)
	if err != nil {
		t.Fatal(err)
	}
	global, err := tb.SteadyBandwidth(core.ModeGlobal)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 10: Clos and local around 145 Gbps, global around 185 Gbps.
	if clos < 130 || clos > 160 {
		t.Fatalf("Clos bandwidth = %.1f, want ~145", clos)
	}
	if local < 125 || local > 160 {
		t.Fatalf("local bandwidth = %.1f, want ~145", local)
	}
	if global < 170 || global > 200 {
		t.Fatalf("global bandwidth = %.1f, want ~185", global)
	}
	// Headline: converting Clos -> global increases core bandwidth by
	// ~27.6%.
	gain := global/clos - 1
	if gain < 0.20 || gain < 0 || gain > 0.35 {
		t.Fatalf("global gain = %.1f%%, want ~27.6%%", gain*100)
	}
}

func TestRunIPerfFigure10(t *testing.T) {
	tb, err := New()
	if err != nil {
		t.Fatal(err)
	}
	schedule := []ScheduleEntry{
		{At: 20, Mode: core.ModeGlobal},
		{At: 40, Mode: core.ModeLocal},
	}
	samples, events, err := tb.RunIPerf(schedule, 60, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 121 {
		t.Fatalf("samples = %d, want 121", len(samples))
	}
	if len(events) != 2 {
		t.Fatalf("events = %d, want 2", len(events))
	}
	// Traffic reaches maximum within 2.5s of each conversion start.
	for _, e := range events {
		if dt := e.RecoverAt - e.At; dt < 1.0 || dt > 2.6 {
			t.Fatalf("recovery took %.2fs, want 1.0-2.6s (paper: 2-2.5s)", dt)
		}
	}
	// During conversion throughput dips to zero, then recovers above the
	// pre-conversion Clos plateau once in global mode.
	at := func(tt float64) float64 {
		for _, s := range samples {
			if s.T >= tt {
				return s.CoreBandwidth
			}
		}
		return -1
	}
	if v := at(20.5); v > 1 {
		t.Fatalf("bandwidth during conversion = %.1f, want ~0", v)
	}
	pre := at(19.5)
	post := at(30)
	if post <= pre*1.15 {
		t.Fatalf("global plateau %.1f not clearly above Clos plateau %.1f", post, pre)
	}
}

func TestRunIPerfValidation(t *testing.T) {
	tb, _ := New()
	if _, _, err := tb.RunIPerf(nil, 0, 0.5); err == nil {
		t.Fatal("zero duration accepted")
	}
	if _, _, err := tb.RunIPerf(nil, 10, 0); err == nil {
		t.Fatal("zero interval accepted")
	}
}

func TestConversionDelayTable3(t *testing.T) {
	// Reproduce Table 3's structure: convert to global, local, Clos in
	// turn and check each total lands near the paper's ~0.8-1.3s window.
	tb, err := New()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []core.Mode{core.ModeGlobal, core.ModeLocal, core.ModeClos} {
		rep, err := tb.Ctrl.Convert(m)
		if err != nil {
			t.Fatal(err)
		}
		if rep.OCSTime != 0.160 {
			t.Fatalf("OCS time = %v, want 0.160", rep.OCSTime)
		}
		if rep.Total < 0.2 || rep.Total > 2.0 {
			t.Fatalf("convert to %v total = %.3fs, outside testbed range", m, rep.Total)
		}
	}
}

func TestOCSProgrammedAcrossConversions(t *testing.T) {
	tb, err := New()
	if err != nil {
		t.Fatal(err)
	}
	// The OCS holds exactly the program of the network's converters in
	// their current mode: reprogramming them changes no crosspoint. The
	// circuit count of each mode on this device (32 in Clos, 40 in
	// global) is ocs's TestProgramModesAndDiff.
	inSync := func(stage string) {
		t.Helper()
		if n, err := tb.OCS.Program(tb.Ctrl.Network().Converters()); err != nil || n != 0 {
			t.Fatalf("%s: OCS differs from the network's converters (%d crosspoints, err %v)", stage, n, err)
		}
	}
	inSync("startup")
	_, changed, err := tb.Convert(core.ModeGlobal)
	if err != nil {
		t.Fatal(err)
	}
	if changed == 0 {
		t.Fatal("conversion changed no crosspoints")
	}
	inSync("global")
	// Converting to the same mode is an OCS no-op.
	_, changed, err = tb.Convert(core.ModeGlobal)
	if err != nil {
		t.Fatal(err)
	}
	if changed != 0 {
		t.Fatalf("idempotent conversion changed %d crosspoints", changed)
	}
}

func TestGradualVsAtomicConversion(t *testing.T) {
	atomicTB, err := New()
	if err != nil {
		t.Fatal(err)
	}
	atomic, err := atomicTB.RunAtomicConversion(core.ModeGlobal, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	gradualTB, err := New()
	if err != nil {
		t.Fatal(err)
	}
	gradual, err := gradualTB.RunGradualConversion(core.ModeGlobal, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// §4.3: draining incrementally avoids the full outage — the atomic
	// conversion's floor is zero, the gradual one keeps most traffic up.
	if atomic.MinBandwidth != 0 {
		t.Fatalf("atomic floor = %v, want 0", atomic.MinBandwidth)
	}
	if gradual.MinBandwidth < 60 {
		t.Fatalf("gradual floor = %.1f Gbps, want well above zero", gradual.MinBandwidth)
	}
	// The trade: gradual takes longer end to end.
	if gradual.Duration <= atomic.Duration {
		t.Fatalf("gradual (%.1fs) not slower than atomic (%.1fs)", gradual.Duration, atomic.Duration)
	}
	// Both end at the same global plateau.
	aEnd := atomic.Samples[len(atomic.Samples)-1].CoreBandwidth
	gEnd := gradual.Samples[len(gradual.Samples)-1].CoreBandwidth
	if diff := aEnd/gEnd - 1; diff > 0.01 || diff < -0.01 {
		t.Fatalf("plateaus differ: %.1f vs %.1f", aEnd, gEnd)
	}
}

// TestRunGradualConversionSteps pins the §4.3 gradual conversion the
// ablation-gradual experiment runs: every step converts one more pod
// through a hybrid the controller routes (the pods not converting keep
// carrying traffic), each step costs more than the OCS alone, the
// network ends uniformly in the target mode, and a second run converts
// nothing.
func TestRunGradualConversionSteps(t *testing.T) {
	reg := telemetry.Enable()
	t.Cleanup(telemetry.Disable)
	tb, err := New()
	if err != nil {
		t.Fatal(err)
	}
	run, err := tb.RunGradualConversion(core.ModeGlobal, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	conversions := func() []telemetry.SpanSnapshot {
		var out []telemetry.SpanSnapshot
		for _, sp := range reg.Snapshot().Spans {
			if sp.Name == "conversion" {
				out = append(out, sp)
			}
		}
		return out
	}
	steps := conversions()
	if len(steps) != 4 {
		t.Fatalf("%d conversion steps, want one per pod (4)", len(steps))
	}
	for i, sp := range steps {
		modes := []string{"global", "global", "global", "global"}
		for p := i + 1; p < len(modes); p++ {
			modes[p] = "clos"
		}
		want := strings.Join(modes, ",")
		if i == len(steps)-1 {
			want = "global"
		}
		if got := sp.Attrs["to"]; got != want {
			t.Fatalf("step %d converts to %v, want %s", i, got, want)
		}
		if total := sp.Attrs["modeled_total_seconds"].(float64); total <= 0.160 {
			t.Fatalf("step %d modeled total %v at the OCS floor", i, total)
		}
	}
	for _, s := range run.Samples {
		if s.ConvertingPod >= 0 && s.CoreBandwidth <= 0 {
			t.Fatalf("no bandwidth at t=%v while pod %d converts: the hybrid carries no traffic", s.T, s.ConvertingPod)
		}
	}
	if m, uniform := tb.Ctrl.Network().Mode(); !uniform || m != core.ModeGlobal {
		t.Fatalf("final mode %v (uniform=%v), want global", m, uniform)
	}
	again, err := tb.RunGradualConversion(core.ModeGlobal, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(conversions()); n != len(steps) || len(again.Samples) != 1 || again.Samples[0].ConvertingPod != -1 {
		t.Fatalf("a second run made %d more conversions and %d samples, want none and only the final sample", n-len(steps), len(again.Samples))
	}
}
