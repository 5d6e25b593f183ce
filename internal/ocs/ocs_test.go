package ocs

import (
	"fmt"
	"sort"
	"testing"

	"flattree/internal/core"
)

func testbed(t *testing.T) (*core.Network, *Switch) {
	t.Helper()
	nw, err := core.ExampleNetwork()
	if err != nil {
		t.Fatal(err)
	}
	s, err := TestbedOCS(nw)
	if err != nil {
		t.Fatal(err)
	}
	return nw, s
}

func TestAllocationBudget(t *testing.T) {
	_, s := testbed(t)
	// 8 four-port + 8 six-port converters = 80 of 192 ports.
	if got := s.Ports() - s.FreePorts(); got != 80 {
		t.Fatalf("allocated ports = %d, want 80", got)
	}
}

func TestAllocateRejections(t *testing.T) {
	s, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Allocate(0, core.SixPort); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Allocate(0, core.FourPort); err == nil {
		t.Fatal("duplicate converter accepted")
	}
	if _, err := s.Allocate(1, core.FourPort); err == nil {
		t.Fatal("over-capacity allocation accepted")
	}
	if _, err := New(1); err == nil {
		t.Fatal("1-port OCS accepted")
	}
}

func TestProgramModesAndDiff(t *testing.T) {
	nw, s := testbed(t)

	nw.SetMode(core.ModeClos)
	first, err := s.Program(nw.Converters())
	if err != nil {
		t.Fatal(err)
	}
	// Initial program: every converter establishes 2 circuits (default
	// config) = 32 circuits made from nothing.
	if first != 32 {
		t.Fatalf("initial circuits changed = %d, want 32", first)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Circuits()); got != 32 {
		t.Fatalf("circuits = %d, want 32", got)
	}

	// Reprogramming the same mode changes nothing.
	same, err := s.Program(nw.Converters())
	if err != nil {
		t.Fatal(err)
	}
	if same != 0 {
		t.Fatalf("idempotent reprogram changed %d circuits", same)
	}

	// Clos -> global rewires every converter: all 32 old circuits break
	// and the new ones (2 per 4-port local, 3 per 6-port side/cross)
	// form: diff counts every crosspoint that differs.
	nw.SetMode(core.ModeGlobal)
	diff, err := s.Program(nw.Converters())
	if err != nil {
		t.Fatal(err)
	}
	if diff == 0 {
		t.Fatal("mode change programmed no crosspoint changes")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Global: 8 four-port x 2 + 8 six-port x 3 = 40 circuits.
	if got := len(s.Circuits()); got != 40 {
		t.Fatalf("global circuits = %d, want 40", got)
	}
}

func TestProgramUnallocatedConverter(t *testing.T) {
	nw, err := core.ExampleNetwork()
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(192)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Program(nw.Converters()); err == nil {
		t.Fatal("programming unallocated converters succeeded")
	}
}

func TestCircuitsDisjointAcrossPartitions(t *testing.T) {
	nw, s := testbed(t)
	nw.SetMode(core.ModeGlobal)
	if _, err := s.Program(nw.Converters()); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, c := range s.Circuits() {
		for _, p := range []int{c[0], c[1]} {
			if seen[p] {
				t.Fatalf("port %d in two circuits", p)
			}
			seen[p] = true
		}
	}
}

// Ports returns the port count.
func (s *Switch) Ports() int { return s.ports }

// FreePorts returns the number of unallocated physical ports.
func (s *Switch) FreePorts() int { return s.ports - s.nextFree }

// Circuits returns the current physical circuits as sorted port pairs.
func (s *Switch) Circuits() [][2]int {
	var out [][2]int
	for p, q := range s.mate {
		if q > p {
			out = append(out, [2]int{p, q})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// Validate checks the matching invariant: mate is an involution with no
// fixed points among connected ports.
func (s *Switch) Validate() error {
	for p, q := range s.mate {
		if q == -1 {
			continue
		}
		if q < 0 || q >= s.ports {
			return fmt.Errorf("ocs: port %d mated out of range (%d)", p, q)
		}
		if q == p {
			return fmt.Errorf("ocs: port %d mated to itself", p)
		}
		if s.mate[q] != p {
			return fmt.Errorf("ocs: ports %d and %d disagree", p, q)
		}
	}
	return nil
}
