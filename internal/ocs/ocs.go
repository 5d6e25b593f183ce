// Package ocs models the optical circuit switch that physically hosts the
// converter switches on the paper's testbed: "The converter switches are
// logical partitions of the OCS" (§5.3, Figure 9 — a 192-port 3D-MEMS
// switch). Each converter's 4 or 6 logical ports map to disjoint physical
// ports; programming a flat-tree mode compiles every converter's circuit
// matching (core.CrossConnects) into one physical cross-connect set, and
// reconfiguration cost is the number of crosspoints that change.
package ocs

import (
	"fmt"

	"flattree/internal/core"
)

// Switch is an optical circuit switch with a port-to-port matching.
type Switch struct {
	ports int
	// mate[p] = q when a circuit connects ports p and q; -1 otherwise.
	mate []int
	// partitions maps converter index -> physical ports of its logical
	// ports (indexed by core.Port).
	partitions map[int]map[core.Port]int
	nextFree   int
}

// New returns an OCS with the given port count and no circuits.
func New(ports int) (*Switch, error) {
	if ports < 2 {
		return nil, fmt.Errorf("ocs: %d ports", ports)
	}
	s := &Switch{ports: ports, mate: make([]int, ports), partitions: map[int]map[core.Port]int{}}
	for i := range s.mate {
		s.mate[i] = -1
	}
	return s, nil
}

// Allocate reserves a partition of physical ports for one converter and
// returns the logical-to-physical port map. Converter indices must be
// unique.
func (s *Switch) Allocate(converter int, kind core.ConverterKind) (map[core.Port]int, error) {
	if _, dup := s.partitions[converter]; dup {
		return nil, fmt.Errorf("ocs: converter %d already allocated", converter)
	}
	need := 4
	maxPort := core.PortCore
	if kind == core.SixPort {
		need = 6
		maxPort = core.PortSide2
	}
	if s.nextFree+need > s.ports {
		return nil, fmt.Errorf("ocs: %d ports left, converter needs %d", s.ports-s.nextFree, need)
	}
	m := make(map[core.Port]int, need)
	for p := core.PortServer; p <= maxPort; p++ {
		m[p] = s.nextFree
		s.nextFree++
	}
	s.partitions[converter] = m
	return m, nil
}

// AllocateNetwork reserves partitions for every converter of a flat-tree
// network, in the network's deterministic converter order.
func (s *Switch) AllocateNetwork(nw *core.Network) error {
	for i, cv := range nw.Converters() {
		if _, err := s.Allocate(i, cv.Kind); err != nil {
			return fmt.Errorf("ocs: allocating converter %d: %w", i, err)
		}
	}
	return nil
}

// Program compiles the converters' configurations into the physical
// cross-connect set, replacing the previous program, and returns how many
// crosspoints changed (made plus broken) — the quantity the 160 ms MEMS
// reconfiguration covers.
func (s *Switch) Program(convs []core.Converter) (changed int, err error) {
	want := make([]int, s.ports)
	for i := range want {
		want[i] = -1
	}
	for i, cv := range convs {
		part, ok := s.partitions[i]
		if !ok {
			return 0, fmt.Errorf("ocs: converter %d not allocated", i)
		}
		xcs, err := core.CrossConnects(cv.Kind, cv.Config)
		if err != nil {
			return 0, err
		}
		if err := core.ValidateMatching(cv.Kind, xcs); err != nil {
			return 0, err
		}
		for _, xc := range xcs {
			a, b := part[xc.A], part[xc.B]
			if want[a] != -1 || want[b] != -1 {
				return 0, fmt.Errorf("ocs: port conflict programming converter %d", i)
			}
			want[a], want[b] = b, a
		}
	}
	for p := range want {
		if s.mate[p] != want[p] {
			changed++
		}
	}
	// Every circuit touches two ports; count circuits, not port-ends.
	changed /= 2
	copy(s.mate, want)
	return changed, nil
}

// TestbedOCS returns the Figure 9 device: a 192-port OCS with the example
// network's 16 converters allocated (8 four-port + 8 six-port = 80 ports).
func TestbedOCS(nw *core.Network) (*Switch, error) {
	s, err := New(192)
	if err != nil {
		return nil, err
	}
	if err := s.AllocateNetwork(nw); err != nil {
		return nil, err
	}
	return s, nil
}
