package control

import "fmt"

// Link-failure handling (§4.3): the logically centralized controller
// "observes link failures and updates the graph, which happens
// infrequently and does not cause heavy burden". The installed
// routing.IncrementalTable owns the failure record — a count per endpoint
// pair — and each event touches only the pairs it changes. Node IDs are
// stable across conversions because realizations enumerate nodes
// identically in every mode, so a conversion carries the record onto the
// new mode's table (reinstall): a failure recorded in one mode stays
// masked after converting to another when the same physical cable is
// still in use, and lies dormant while the mode leaves that cable unused.

// FailLink records the failure of one link between switches a and b of
// the installed topology and masks it. Parallel links fail one at a time
// (each call masks one more). It refuses, recording nothing, a link the
// masking rule cannot take — a node out of range, a server uplink, no
// adjacency, or no surviving link — and a failure that would partition
// the fabric.
func (c *Controller) FailLink(a, b int) error {
	if _, _, err := c.inc.Apply(a, b, false); err != nil {
		return err
	}
	if node, cut := c.inc.CutOff(); cut {
		if _, _, err := c.inc.Apply(a, b, true); err != nil {
			return fmt.Errorf("control: undoing the failure of link %d-%d: %w", a, b, err)
		}
		return fmt.Errorf("control: failing link %d-%d would partition the network: node %d is cut off from node 0", a, b, node)
	}
	c.publish()
	return nil
}

// RepairLink clears one recorded failure between a and b and restores
// the link it masked, if any: a dormant failure masks none.
func (c *Controller) RepairLink(a, b int) error {
	if _, _, err := c.inc.Apply(a, b, true); err != nil {
		return fmt.Errorf("control: no recorded failure between %d and %d", a, b)
	}
	c.publish()
	return nil
}

// FailedLinks lists recorded failures as (a, b, count) triples with
// a < b, sorted by (a, b) so output is deterministic across runs.
func (c *Controller) FailedLinks() [][3]int { return c.inc.Failed() }
