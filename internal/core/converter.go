package core

import "fmt"

// This file models converter switches at the circuit level (§3.6): a
// converter is a passive crosspoint (or optical circuit) switch, and a
// configuration is a set of two-port cross-connects — a perfect matching
// over the ports in use. The control plane programs these matchings; the
// realization logic in realize.go consumes the induced endpoint links.

// Port names the external connectors of a converter switch.
type Port int

const (
	// PortServer faces the (relocatable) server.
	PortServer Port = iota
	// PortEdge faces the edge switch's freed server port.
	PortEdge
	// PortAgg faces the aggregation switch's freed uplink.
	PortAgg
	// PortCore faces the core connector.
	PortCore
	// PortSide1 and PortSide2 face the paired converter in the adjacent
	// pod (6-port converters only).
	PortSide1
	PortSide2
)

var portNames = [...]string{"server", "edge", "agg", "core", "side1", "side2"}

func (p Port) String() string {
	if p < 0 || int(p) >= len(portNames) {
		return fmt.Sprintf("Port(%d)", int(p))
	}
	return portNames[p]
}

// CrossConnect is one internal circuit between two ports.
type CrossConnect struct{ A, B Port }

// CrossConnects returns the circuit matching a converter kind establishes
// under a configuration (Figure 1). The side ports connect toward the
// §3.3-paired converter; in the "side" configuration edge and aggregation
// exit straight (side1 carries edge, side2 carries agg), and in "cross"
// they are swapped, which — with the bundle joining side1-to-side1 and
// side2-to-side2 — yields the peer-wise (E-E', A-A') and crossed (E-A',
// A-E') inter-pod links respectively.
func CrossConnects(kind ConverterKind, cfg Config) ([]CrossConnect, error) {
	switch kind {
	case FourPort:
		switch cfg {
		case ConfigDefault:
			return []CrossConnect{{PortServer, PortEdge}, {PortAgg, PortCore}}, nil
		case ConfigLocal:
			return []CrossConnect{{PortServer, PortAgg}, {PortEdge, PortCore}}, nil
		}
		return nil, fmt.Errorf("core: 4-port converter cannot take %v", cfg)
	case SixPort:
		switch cfg {
		case ConfigDefault:
			return []CrossConnect{{PortServer, PortEdge}, {PortAgg, PortCore}}, nil
		case ConfigLocal:
			return []CrossConnect{{PortServer, PortAgg}, {PortEdge, PortCore}}, nil
		case ConfigSide:
			return []CrossConnect{{PortServer, PortCore}, {PortEdge, PortSide1}, {PortAgg, PortSide2}}, nil
		case ConfigCross:
			return []CrossConnect{{PortServer, PortCore}, {PortEdge, PortSide2}, {PortAgg, PortSide1}}, nil
		}
		return nil, fmt.Errorf("core: 6-port converter cannot take %v", cfg)
	}
	return nil, fmt.Errorf("core: unknown converter kind %v", kind)
}

// ValidateMatching checks that a cross-connect set is a matching over the
// kind's port set: every port appears at most once, no self-circuits, and
// no port outside the kind's range.
func ValidateMatching(kind ConverterKind, xcs []CrossConnect) error {
	maxPort := PortCore
	if kind == SixPort {
		maxPort = PortSide2
	}
	used := make(map[Port]bool)
	for _, xc := range xcs {
		if xc.A == xc.B {
			return fmt.Errorf("core: self-circuit on port %v", xc.A)
		}
		for _, p := range [2]Port{xc.A, xc.B} {
			if p < PortServer || p > maxPort {
				return fmt.Errorf("core: port %v outside a %v converter", p, kind)
			}
			if used[p] {
				return fmt.Errorf("core: port %v used by two circuits", p)
			}
			used[p] = true
		}
	}
	return nil
}
