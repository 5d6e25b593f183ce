package control

import (
	"fmt"
	"sort"

	"flattree/internal/routing"
	"flattree/internal/topo"
)

// Link-failure handling (§4.3): the logically centralized controller
// "observes link failures and updates the graph, which happens
// infrequently and does not cause heavy burden". Failures are recorded as
// a count per endpoint pair — node IDs are stable across conversions
// because realizations enumerate nodes identically in every mode — and
// every reinstall masks them on the new mode's route table with the rule
// flatd and the churn engine use (routing.IncrementalTable.LinkBetween).
// So a failure recorded in one mode stays masked after converting to
// another when the same physical cable is still in use, and lies dormant
// while the mode leaves that cable unused.

// FailLink records the failure of one link between switches a and b of
// the installed topology and reinstalls routing state with it masked.
// Parallel links fail one at a time (each call masks one more). It
// refuses, recording nothing, a link the masking rule cannot take — a
// node out of range, a server uplink, no adjacency, or no surviving link
// — and a failure that would partition the fabric.
func (c *Controller) FailLink(a, b int) error {
	if _, err := c.inc.LinkBetween(a, b, false); err != nil {
		return err
	}
	key := linkKey(a, b)
	c.failed[key]++
	if err := c.reinstall(); err != nil {
		c.forget(key)
		return fmt.Errorf("control: failing link %d-%d would partition the network: %w", a, b, err)
	}
	return nil
}

// RepairLink clears one recorded failure between a and b and reinstalls.
// On reinstall failure the record is restored, symmetric with FailLink, so
// the controller's failure bookkeeping always matches its installed state.
func (c *Controller) RepairLink(a, b int) error {
	key := linkKey(a, b)
	if c.failed[key] == 0 {
		return fmt.Errorf("control: no recorded failure between %d and %d", a, b)
	}
	c.forget(key)
	if err := c.reinstall(); err != nil {
		c.failed[key]++
		return fmt.Errorf("control: repairing link %d-%d: %w", a, b, err)
	}
	return nil
}

// forget drops one recorded failure of a pair.
func (c *Controller) forget(key [2]int) {
	c.failed[key]--
	if c.failed[key] == 0 {
		delete(c.failed, key)
	}
}

// FailedLinks lists recorded failures as (a, b, count) triples, sorted by
// (a, b) ascending so output is deterministic across runs.
func (c *Controller) FailedLinks() [][3]int {
	var out [][3]int
	for k, n := range c.failed {
		out = append(out, [3]int{k[0], k[1], n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

func linkKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// maskFailures wraps the healthy table of topology t in an incremental
// table and masks the recorded failures on it, pair by pair in sorted
// order. A pair whose adjacency has fewer links in this mode than its
// record counts masks all it has (LinkBetween errs on the next one); the
// rest of its count stays recorded and dormant. It errors when the masked
// links leave some node unreachable.
func (c *Controller) maskFailures(t *topo.Topology, base *routing.Table) (*routing.IncrementalTable, error) {
	inc := routing.NewIncremental(base)
	banned := map[int]bool{}
	for _, f := range c.FailedLinks() {
		for n := 0; n < f[2]; n++ {
			link, err := inc.LinkBetween(f[0], f[1], false)
			if err != nil {
				break
			}
			inc.Fail(link)
			banned[link] = true
		}
	}
	for node, d := range t.G.BFSDistancesBanned(0, banned) {
		if d < 0 {
			return nil, fmt.Errorf("node %d is cut off from node 0", node)
		}
	}
	return inc, nil
}
