package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"flattree/internal/core"
	"flattree/internal/flowsim"
	"flattree/internal/metrics"
	"flattree/internal/routing"
	"flattree/internal/topo"
	"flattree/internal/traffic"
)

// The failure-resilience study extends the paper's footnote 2: "it has
// been established that throughput degrades more gracefully in random
// graph networks than in fat-tree under failure. Because flat-tree
// approximates random graph networks, we expect flat-tree to be resilient
// to failure as well, although more thorough evaluations are left to
// future work." This experiment performs that evaluation: it fails a
// fraction of switch-to-switch links and measures the surviving
// permutation throughput in Clos versus global mode.

// FailureRow is one (mode, failure fraction) measurement.
type FailureRow struct {
	Mode core.Mode
	// FailFraction is the fraction of switch-switch links removed.
	FailFraction float64
	// Throughput is the mean MPTCP(8) flow rate over surviving routes.
	Throughput float64
	// Disconnected counts flows with no surviving path.
	Disconnected int
}

// AblationFailures measures throughput degradation under random link
// failures for Clos and global modes of the reduced topo-1.
func (c Config) AblationFailures() ([]FailureRow, error) {
	name := "mini-1"
	if c.Full {
		name = "topo-1"
	}
	p, err := c.paramsByName(name)
	if err != nil {
		return nil, err
	}
	fractions := []float64{0, 0.05, 0.10, 0.20}
	var rows []FailureRow
	for _, mode := range []core.Mode{core.ModeClos, core.ModeGlobal} {
		nw, err := core.New(p, flatTreeOptions(p))
		if err != nil {
			return nil, err
		}
		nw.SetMode(mode)
		r := nw.Realize()
		pairs := traffic.Permutation(p.TotalServers(), c.Seed)
		for _, frac := range fractions {
			t, err := failLinks(r.Topo, frac, c.Seed+int64(frac*1000))
			if err != nil {
				return nil, err
			}
			row := FailureRow{Mode: mode, FailFraction: frac}
			table := routing.BuildKShortest(t, 8)
			servers := t.Servers()
			var specs []flowsim.ConnSpec
			for _, pr := range pairs {
				dp := table.ServerSlots(servers[pr.Src], servers[pr.Dst])
				if len(dp) == 0 {
					row.Disconnected++
					continue
				}
				specs = append(specs, flowsim.ConnSpec{Paths: dp, Bits: math.Inf(1)})
			}
			rates, err := flowsim.StaticRates(routing.DirectedCaps(t.G), specs, topo.DefaultLinkCapacity)
			if err != nil {
				return nil, err
			}
			row.Throughput = metrics.Mean(rates)
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// failLinks rebuilds the topology with a random fraction of switch-switch
// links removed (server uplinks never fail: a failed NIC removes the
// server, which is not a network property). It retries seeds until the
// switch fabric stays connected, mirroring operators' practice of
// evaluating non-partitioning failures.
func failLinks(t *topo.Topology, fraction float64, seed int64) (*topo.Topology, error) {
	if fraction == 0 {
		return t, nil
	}
	for attempt := int64(0); attempt < 50; attempt++ {
		rng := rand.New(rand.NewSource(seed + attempt))
		out := topo.NewTopology(fmt.Sprintf("%s-fail%.0f%%", t.Name, fraction*100))
		out.SetNumPods(t.NumPods())
		idMap := make([]int, len(t.Nodes))
		for _, n := range t.Nodes {
			idMap[n.ID] = out.AddNode(n.Kind, n.Pod)
		}
		ok := true
		for _, l := range t.G.Links() {
			na, nb := t.Nodes[l.A], t.Nodes[l.B]
			if na.Kind == topo.Server || nb.Kind == topo.Server {
				continue // re-add below via AttachServer
			}
			if rng.Float64() < fraction {
				continue // failed link
			}
			out.AddLink(idMap[l.A], idMap[l.B])
		}
		for _, s := range t.Servers() {
			out.AttachServer(idMap[s], idMap[t.AttachedSwitch(s)])
		}
		if err := out.Validate(); err != nil {
			ok = false
		}
		if ok {
			return out, nil
		}
	}
	return nil, fmt.Errorf("experiments: could not draw a non-partitioning %.0f%% failure", fraction*100)
}

// RenderAblationFailures formats the failure study.
func RenderAblationFailures(rows []FailureRow) string {
	t := &metrics.Table{Header: []string{"mode", "links failed", "permutation avg (Gbps)", "disconnected flows"}}
	for _, r := range rows {
		t.Add(r.Mode.String(), fmt.Sprintf("%.0f%%", r.FailFraction*100), r.Throughput, r.Disconnected)
	}
	return t.String()
}
