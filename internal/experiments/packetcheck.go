package experiments

import (
	"math"

	"flattree/internal/core"
	"flattree/internal/flowsim"
	"flattree/internal/metrics"
	"flattree/internal/packetsim"
	"flattree/internal/routing"
	"flattree/internal/topo"
	"flattree/internal/traffic"
)

// The packet-level cross-check validates the fluid substitution: the paper
// evaluated flat-tree with a packet-level MPTCP simulator; this repository
// substitutes a fluid max-min model for scalability. ablation-packet runs
// the Figure 10 iPerf pattern through BOTH simulators on a rate-scaled
// replica of the testbed and reports how closely the packet-level
// aggregate tracks the fluid prediction per mode — and whether the
// headline global-vs-Clos gain survives packet dynamics.

// PacketCheckRow is one mode's fluid-versus-packet comparison.
type PacketCheckRow struct {
	Mode core.Mode
	// FluidGbps is the max-min aggregate core bandwidth (at full rate).
	FluidGbps float64
	// PacketGbps is the packet-level aggregate, rescaled back to full
	// rate from the reduced-rate replica.
	PacketGbps float64
	// Ratio is PacketGbps / FluidGbps.
	Ratio float64
}

// rateScale runs the packet replica at 1% of the 10 Gbps fabric so the
// event count stays tractable; throughput scales linearly back.
const packetRateScale = 0.01

// AblationPacket cross-validates flowsim against packetsim on the testbed
// iPerf pattern for each uniform mode.
func (c Config) AblationPacket() ([]PacketCheckRow, error) {
	tb, err := c.newTestbed()
	if err != nil {
		return nil, err
	}
	var rows []PacketCheckRow
	for _, mode := range sortedModes() {
		if _, err := tb.Ctrl.Convert(mode); err != nil {
			return nil, err
		}
		r := tb.Ctrl.Realization()
		table := tb.Ctrl.Table()
		servers := r.Topo.Servers()

		var fluidSpecs []flowsim.ConnSpec
		var pktSpecs []packetsim.FlowSpec
		for _, pr := range tb.IPerfPairs() {
			dp := table.ServerSlots(servers[pr[0]], servers[pr[1]])
			fluidSpecs = append(fluidSpecs, flowsim.ConnSpec{Paths: dp, Bits: math.Inf(1)})
			pktSpecs = append(pktSpecs, packetsim.FlowSpec{Paths: dp, Bits: math.Inf(1)})
		}

		fluidRates, err := flowsim.StaticRates(routing.DirectedCaps(r.Topo.G), fluidSpecs, topo.DefaultLinkCapacity)
		if err != nil {
			return nil, err
		}
		fluid := 0.0
		for _, fr := range fluidRates {
			fluid += fr
		}

		const horizon = 0.25
		sim, err := packetsim.New(r.Topo.G, packetsim.Config{RateScale: packetRateScale}, pktSpecs, horizon)
		if err != nil {
			return nil, err
		}
		results, err := sim.Run()
		if err != nil {
			return nil, err
		}
		// Skip the slow-start warmup by measuring delivered bits over the
		// whole window; at a 0.25 s horizon the warmup is a few percent.
		pkt := 0.0
		for _, fr := range results {
			pkt += fr.Throughput(0, horizon)
		}
		pktGbps := pkt / packetRateScale / 1e9

		rows = append(rows, PacketCheckRow{
			Mode: mode, FluidGbps: fluid, PacketGbps: pktGbps,
			Ratio: pktGbps / fluid,
		})
	}
	return rows, nil
}

// RenderAblationPacket formats the cross-check.
func RenderAblationPacket(rows []PacketCheckRow) string {
	t := &metrics.Table{Header: []string{"mode", "fluid aggregate (Gbps)", "packet-level aggregate (Gbps)", "packet/fluid"}}
	for _, r := range rows {
		t.Add(r.Mode.String(), r.FluidGbps, r.PacketGbps, r.Ratio)
	}
	return t.String()
}

// PacketFCTRow compares packet-level and fluid FCTs for one mode.
type PacketFCTRow struct {
	Mode core.Mode
	// Medians in milliseconds at full (10 Gbps) scale.
	FluidMedianMs, PacketMedianMs float64
}

// AblationPacketFCT replays a small pod-local trace through both
// simulators on the testbed in global and Clos modes, validating that the
// fluid FCT distribution tracks packet-level dynamics (not just steady
// throughput). The packet replica runs at 1% rate with 1% flow sizes, so
// FCTs match full scale directly.
func (c Config) AblationPacketFCT() ([]PacketFCTRow, error) {
	tb, err := c.newTestbed()
	if err != nil {
		return nil, err
	}
	cp := tb.Ctrl.Network().Clos()
	spec, err := traffic.FacebookSpec("cache", cp.TotalServers(), cp.ServersPerEdge,
		cp.EdgesPerPod, 200, c.Seed+31)
	if err != nil {
		return nil, err
	}
	spec.Duration = 1.0
	spec.SizeMedianGbit *= 100 // stress the small testbed fabric
	spec.SizeSigma = 1.0       // lighter tail so both replicas complete
	flows, err := traffic.Generate(spec)
	if err != nil {
		return nil, err
	}

	var rows []PacketFCTRow
	for _, mode := range []core.Mode{core.ModeGlobal, core.ModeClos} {
		if _, _, err := tb.Convert(mode); err != nil {
			return nil, err
		}
		r := tb.Ctrl.Realization()
		table := tb.Ctrl.Table()
		servers := r.Topo.Servers()

		var fluidSpecs []flowsim.ConnSpec
		var pktSpecs []packetsim.FlowSpec
		for _, f := range flows {
			dp := table.ServerSlots(servers[f.Src], servers[f.Dst])
			fluidSpecs = append(fluidSpecs, flowsim.ConnSpec{Paths: dp, Bits: f.Bits, Arrival: f.Arrival})
			// The packet replica scales rates and sizes together, so
			// completion times are directly comparable. Traffic sizes are
			// in Gbit (the flowsim convention); packetsim takes raw bits.
			pktSpecs = append(pktSpecs, packetsim.FlowSpec{
				Paths: dp, Bits: f.Bits * 1e9 * packetRateScale, Start: f.Arrival,
			})
		}

		fluidRes, err := flowsim.NewSim(routing.DirectedCaps(r.Topo.G), fluidSpecs).Run()
		if err != nil {
			return nil, err
		}
		var fluidFCT []float64
		for _, fr := range fluidRes {
			if !math.IsInf(fr.Finish, 1) {
				fluidFCT = append(fluidFCT, fr.FCT()*1000)
			}
		}

		sim, err := packetsim.New(r.Topo.G, packetsim.Config{RateScale: packetRateScale, RTOMin: 0.2}, pktSpecs, 600)
		if err != nil {
			return nil, err
		}
		pktRes, err := sim.Run()
		if err != nil {
			return nil, err
		}
		// Compare medians over the flows that completed in BOTH replicas
		// so tail truncation cannot bias either side.
		fluidFCT = fluidFCT[:0]
		var pktFCT []float64
		for i := range flows {
			if math.IsInf(fluidRes[i].Finish, 1) || math.IsInf(pktRes[i].Finish, 1) {
				continue
			}
			fluidFCT = append(fluidFCT, fluidRes[i].FCT()*1000)
			pktFCT = append(pktFCT, (pktRes[i].Finish-pktSpecs[i].Start)*1000)
		}

		rows = append(rows, PacketFCTRow{
			Mode:           mode,
			FluidMedianMs:  metrics.Percentile(fluidFCT, 0.5),
			PacketMedianMs: metrics.Percentile(pktFCT, 0.5),
		})
	}
	return rows, nil
}

// RenderAblationPacketFCT formats the FCT validation.
func RenderAblationPacketFCT(rows []PacketFCTRow) string {
	t := &metrics.Table{Header: []string{"mode", "fluid median FCT (ms)", "packet-level median FCT (ms)"}}
	for _, r := range rows {
		t.Add(r.Mode.String(), r.FluidMedianMs, r.PacketMedianMs)
	}
	return t.String()
}
