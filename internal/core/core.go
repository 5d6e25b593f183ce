// Package core implements the flat-tree convertible data center network
// architecture, the primary contribution of the paper.
//
// A flat-tree network starts from a generic Clos layout (topo.ClosParams)
// and augments every pod with converter switches (§3.1): each pair of edge
// switch E_j and aggregation switch A_{j/r} is wired through n 4-port and
// m 6-port converter switches. By reconfiguring the converters the network
// converts at run time between a Clos topology, approximate local (two-
// stage) random graphs, and an approximate global random graph — without
// any physical rewiring.
//
// The package models:
//
//   - converter switches and their valid configurations (Figure 1);
//   - the flat-tree pod with blade A (4-port) and blade B (6-port)
//     converter matrices (Figure 3);
//   - pod-core wiring patterns 1 and 2 (§3.2, Figure 4);
//   - inter-pod side wiring with the shifted column pattern (§3.3);
//   - server distribution profiling over (m, n) (§3.4);
//   - operation modes Clos, local, global, and hybrid (§3.5).
//
// Realize produces the concrete topo.Topology for the current converter
// configuration; server node indices are stable across modes, mirroring the
// fact that topology conversion moves cables, not machines.
package core

import (
	"fmt"

	"flattree/internal/topo"
)

// Mode is a flat-tree operation mode (§3.5).
type Mode int

const (
	// ModeClos makes the network function as the original Clos topology:
	// every converter takes the "default" configuration.
	ModeClos Mode = iota
	// ModeLocal approximates a two-stage (regional) random graph: half of
	// each edge switch's servers are relocated to its aggregation switch.
	ModeLocal
	// ModeGlobal approximates a network-wide random graph: 4-port
	// converters relocate servers to aggregation switches and 6-port
	// converters relocate servers to core switches while cross-wiring
	// adjacent pods through their side ports.
	ModeGlobal
)

var modeNames = [...]string{"clos", "local", "global"}

func (m Mode) String() string {
	if m < 0 || int(m) >= len(modeNames) {
		return fmt.Sprintf("Mode(%d)", int(m))
	}
	return modeNames[m]
}

// ParseMode converts a mode name to a Mode.
func ParseMode(s string) (Mode, error) {
	for i, n := range modeNames {
		if n == s {
			return Mode(i), nil
		}
	}
	return 0, fmt.Errorf("core: unknown mode %q", s)
}

// Pattern selects the pod-core wiring pattern of §3.2.
type Pattern int

const (
	// Pattern1 packs blade B connectors continuously pod by pod through
	// each core group (better side-link utilization).
	Pattern1 Pattern = 1
	// Pattern2 advances blade B connectors by one extra core switch per
	// pod (better diversity when h/r is a multiple of m).
	Pattern2 Pattern = 2
)

// Config is a converter switch configuration (Figure 1).
type Config int

const (
	// ConfigDefault restores the original Clos connections:
	// server-edge and agg-core.
	ConfigDefault Config = iota
	// ConfigLocal relocates the server to the aggregation switch and
	// connects the core and edge switches directly.
	ConfigLocal
	// ConfigSide (6-port only) relocates the server to the core switch
	// and wires edge and agg to their peers in the adjacent pod
	// (peer-wise: E-E', A-A').
	ConfigSide
	// ConfigCross (6-port only) relocates the server to the core switch
	// and cross-wires edge and agg to the adjacent pod (E-A', A-E').
	ConfigCross
)

var configNames = [...]string{"default", "local", "side", "cross"}

func (c Config) String() string {
	if c < 0 || int(c) >= len(configNames) {
		return fmt.Sprintf("Config(%d)", int(c))
	}
	return configNames[c]
}

// ConverterKind distinguishes blade A (4-port) from blade B (6-port).
type ConverterKind int

const (
	// FourPort converters (blade A) can relocate a server to the
	// aggregation switch.
	FourPort ConverterKind = 4
	// SixPort converters (blade B) can additionally relocate a server to
	// the core switch via their side ports.
	SixPort ConverterKind = 6
)

func (k ConverterKind) String() string {
	if k == FourPort {
		return "4-port"
	}
	return "6-port"
}

// Converter identifies one converter switch and its current configuration.
type Converter struct {
	Kind ConverterKind
	Pod  int
	// EdgeCol is the pod-local edge switch index j in [0, d); columns
	// j < d/2 sit on the left blade, the rest on the right blade.
	EdgeCol int
	// Row is the row within the blade matrix: [0, n) for blade A,
	// [0, m) for blade B.
	Row    int
	Config Config
}

// Options configure the flat-tree augmentation of a Clos network.
type Options struct {
	// N is the number of 4-port converters per edge-agg pair (blade A
	// rows); servers relocatable to aggregation switches.
	N int
	// M is the number of 6-port converters per edge-agg pair (blade B
	// rows); servers relocatable to core switches.
	M int
	// Pattern is the pod-core wiring pattern; defaults to Pattern1.
	Pattern Pattern
	// LinearPods disables the wrap-around ring of inter-pod side wiring,
	// reproducing the paper's linear pod row where the outermost side
	// connectors are unused. The default (false) closes the ring so every
	// pod has two neighbors.
	LinearPods bool
}

// Network is a flat-tree network: a Clos layout plus converter blades and
// a per-pod operation mode.
type Network struct {
	clos     topo.ClosParams
	opt      Options
	podModes []Mode
}

// New validates the layout and returns a flat-tree network in Clos mode.
func New(clos topo.ClosParams, opt Options) (*Network, error) {
	if err := clos.Validate(); err != nil {
		return nil, err
	}
	if opt.Pattern == 0 {
		opt.Pattern = Pattern1
	}
	if opt.Pattern != Pattern1 && opt.Pattern != Pattern2 {
		return nil, fmt.Errorf("core: invalid wiring pattern %d", opt.Pattern)
	}
	if opt.N < 0 || opt.M < 0 || opt.N+opt.M == 0 {
		return nil, fmt.Errorf("core: need at least one converter per pair (n=%d, m=%d)", opt.N, opt.M)
	}
	if clos.EdgesPerPod%2 != 0 {
		return nil, fmt.Errorf("core: edges per pod %d must be even to split blades", clos.EdgesPerPod)
	}
	g := clos.AggUplinks / clos.R()
	if opt.N+opt.M > g {
		return nil, fmt.Errorf("core: n+m = %d exceeds per-edge core connectors h/r = %d", opt.N+opt.M, g)
	}
	if opt.M >= g {
		// In global mode every blade B connector carries a server-core
		// link; if all g connectors of a group were blade B, core
		// switches would keep no switch-level links and the network
		// would partition. At least one blade A or aggregation connector
		// must remain per group.
		return nil, fmt.Errorf("core: m = %d must be below h/r = %d so core switches keep switch links in global mode", opt.M, g)
	}
	if opt.N+opt.M > clos.ServersPerEdge {
		return nil, fmt.Errorf("core: n+m = %d exceeds servers per edge %d", opt.N+opt.M, clos.ServersPerEdge)
	}
	if clos.AggUplinks%clos.R() != 0 {
		return nil, fmt.Errorf("core: agg uplinks %d not divisible by r=%d", clos.AggUplinks, clos.R())
	}
	if clos.Pods < 2 && !opt.LinearPods {
		opt.LinearPods = true // a single pod has no neighbor
	}
	nw := &Network{clos: clos, opt: opt, podModes: make([]Mode, clos.Pods)}
	if err := nw.validateGlobalConnectivity(); err != nil {
		return nil, err
	}
	return nw, nil
}

// validateGlobalConnectivity rejects (pattern, m, n) combinations that
// would partition the network in global mode: every core group position
// must receive at least one blade A or aggregation connector from some
// pod; a position fed exclusively by blade B connectors carries only
// server links in global mode, stranding its core switches. The hazard is
// real: with pattern 2 and g | (m+1), every pod's rotation offset is zero
// and the first m positions of every group see only blade B connectors.
func (nw *Network) validateGlobalConnectivity() error {
	g := nw.CoreGroupSize()
	covered := make([]bool, g)
	for pod := 0; pod < nw.clos.Pods; pod++ {
		var offset int
		switch nw.opt.Pattern {
		case Pattern1:
			offset = (pod * nw.opt.M) % g
		case Pattern2:
			offset = (pod * (nw.opt.M + 1)) % g
		}
		// Connector indices m..g-1 are blade A and aggregation
		// connectors — switch-level links in every mode.
		for idx := nw.opt.M; idx < g; idx++ {
			covered[(offset+idx)%g] = true
		}
	}
	for q, ok := range covered {
		if !ok {
			return fmt.Errorf("core: pattern %d with n=%d, m=%d leaves core group position %d with only server links in global mode (partition hazard); choose a different m or wiring pattern",
				int(nw.opt.Pattern), nw.opt.N, nw.opt.M, q)
		}
	}
	return nil
}

// Clone returns an independent copy of the network: same Clos layout and
// converter options, private per-pod mode vector. What-if machinery
// (control.QuotePodModes, flatd's conversion quotes) converts the clone
// freely without disturbing the live network.
func (nw *Network) Clone() *Network {
	return &Network{clos: nw.clos, opt: nw.opt, podModes: append([]Mode(nil), nw.podModes...)}
}

// Clos returns the underlying Clos parameterization.
func (nw *Network) Clos() topo.ClosParams { return nw.clos }

// Options returns the flat-tree options.
func (nw *Network) Options() Options { return nw.opt }

// CoreGroupSize returns g = h/r, the number of core switches each edge
// switch's connectors reach.
func (nw *Network) CoreGroupSize() int { return nw.clos.AggUplinks / nw.clos.R() }

// SetMode puts every pod in the given mode. It panics with CheckMode's
// error, before changing any pod, on a mode other than clos, local and
// global; SetPodMode returns that error instead.
func (nw *Network) SetMode(m Mode) {
	if err := CheckMode(m); err != nil {
		panic(err)
	}
	for i := range nw.podModes {
		nw.podModes[i] = m
	}
}

// SetPodMode sets one pod's mode (hybrid operation, §3.5). It rejects a
// pod out of range and a mode other than clos, local and global
// (CheckMode), leaving the modes as they were.
func (nw *Network) SetPodMode(pod int, m Mode) error {
	if pod < 0 || pod >= len(nw.podModes) {
		return fmt.Errorf("core: pod %d out of range [0, %d)", pod, len(nw.podModes))
	}
	if err := CheckMode(m); err != nil {
		return err
	}
	nw.podModes[pod] = m
	return nil
}

// CheckMode returns an error for a mode other than clos, local and
// global, which Realize could not wire.
func CheckMode(m Mode) error {
	if m < ModeClos || m > ModeGlobal {
		return fmt.Errorf("core: invalid mode %v (want clos, local or global)", m)
	}
	return nil
}

// PodModes returns a copy of the per-pod mode assignment.
func (nw *Network) PodModes() []Mode {
	return append([]Mode(nil), nw.podModes...)
}

// Mode returns the network-wide mode if uniform, or ok=false in hybrid
// operation.
func (nw *Network) Mode() (Mode, bool) {
	m := nw.podModes[0]
	for _, pm := range nw.podModes[1:] {
		if pm != m {
			return 0, false
		}
	}
	return m, true
}

// leftPartnerPod returns the pod whose right blade faces pod p's left
// blade, or -1 at a linear boundary.
func (nw *Network) leftPartnerPod(p int) int {
	if p > 0 {
		return p - 1
	}
	if nw.opt.LinearPods {
		return -1
	}
	return nw.clos.Pods - 1
}

// rightPartnerPod returns the pod whose left blade faces pod p's right
// blade, or -1 at a linear boundary.
func (nw *Network) rightPartnerPod(p int) int {
	if p < nw.clos.Pods-1 {
		return p + 1
	}
	if nw.opt.LinearPods {
		return -1
	}
	return 0
}

// SidePartner returns the converter paired with the given 6-port converter
// through the inter-pod side wiring (§3.3), or ok=false at a linear
// boundary. The pairing is the paper's shifted pattern: converter (i, j) on
// the left blade of pod p+1 connects to converter (i, (d/2-1-j+i) mod
// (d/2)) on the right blade of pod p.
func (nw *Network) SidePartner(pod, edgeCol, row int) (ppod, pedgeCol, prow int, ok bool) {
	half := nw.clos.EdgesPerPod / 2
	if edgeCol < half {
		// Left blade: partner is on the right blade of the previous pod.
		p := nw.leftPartnerPod(pod)
		if p < 0 {
			return 0, 0, 0, false
		}
		j := edgeCol
		pj := mod(half-1-j+row, half)
		return p, half + pj, row, true
	}
	// Right blade: partner is on the left blade of the next pod. Invert
	// the left-blade formula: j = (d/2-1+i-j') mod (d/2).
	p := nw.rightPartnerPod(pod)
	if p < 0 {
		return 0, 0, 0, false
	}
	jr := edgeCol - half
	j := mod(half-1+row-jr, half)
	return p, j, row, true
}

func mod(a, b int) int {
	m := a % b
	if m < 0 {
		m += b
	}
	return m
}

// localRelocations returns how many 4-port and how many 6-port converters
// of each edge-agg pair take the "local" configuration in local mode: half
// of the edge's servers move to the aggregation switch, 4-port converters
// first (§3.5).
func (nw *Network) localRelocations() (local4, local6 int) {
	target := nw.clos.ServersPerEdge / 2
	if target > nw.opt.N+nw.opt.M {
		target = nw.opt.N + nw.opt.M
	}
	local4 = nw.opt.N
	if local4 > target {
		local4 = target
	}
	local6 = target - local4
	return local4, local6
}

// configOf computes the configuration of one converter under the current
// per-pod modes.
func (nw *Network) configOf(kind ConverterKind, pod, edgeCol, row int) Config {
	mode := nw.podModes[pod]
	switch mode {
	case ModeClos:
		return ConfigDefault
	case ModeLocal:
		local4, local6 := nw.localRelocations()
		if kind == FourPort {
			if row < local4 {
				return ConfigLocal
			}
			return ConfigDefault
		}
		if row < local6 {
			return ConfigLocal
		}
		return ConfigDefault
	case ModeGlobal:
		if kind == FourPort {
			return ConfigLocal
		}
		// 6-port: side/cross if the partner pod is also global;
		// otherwise degrade to local so no port dangles.
		ppod, _, _, ok := nw.SidePartner(pod, edgeCol, row)
		if !ok || nw.podModes[ppod] != ModeGlobal {
			return ConfigLocal
		}
		if row%2 == 0 {
			return ConfigSide
		}
		return ConfigCross
	}
	panic(fmt.Sprintf("core: invalid mode %v for pod %d", mode, pod))
}

// Converters enumerates every converter switch with its configuration under
// the current modes, in deterministic order: pods ascending, edge columns
// ascending, blade A rows then blade B rows.
func (nw *Network) Converters() []Converter {
	var out []Converter
	for pod := 0; pod < nw.clos.Pods; pod++ {
		for j := 0; j < nw.clos.EdgesPerPod; j++ {
			for i := 0; i < nw.opt.N; i++ {
				out = append(out, Converter{Kind: FourPort, Pod: pod, EdgeCol: j, Row: i,
					Config: nw.configOf(FourPort, pod, j, i)})
			}
			for i := 0; i < nw.opt.M; i++ {
				out = append(out, Converter{Kind: SixPort, Pod: pod, EdgeCol: j, Row: i,
					Config: nw.configOf(SixPort, pod, j, i)})
			}
		}
	}
	return out
}

// NumConverters returns the total number of converter switches.
func (nw *Network) NumConverters() int {
	return nw.clos.Pods * nw.clos.EdgesPerPod * (nw.opt.N + nw.opt.M)
}

// CoreFor returns the core switch index that the connector with in-group
// index idx of edge column j in pod p reaches, under the configured wiring
// pattern (§3.2). In-group connector order is blade B rows (m), blade A
// rows (n), then direct aggregation connectors.
func (nw *Network) CoreFor(pod, edgeCol, idx int) int {
	g := nw.CoreGroupSize()
	if idx < 0 || idx >= g {
		panic(fmt.Sprintf("core: connector index %d out of range [0, %d)", idx, g))
	}
	var offset int
	switch nw.opt.Pattern {
	case Pattern1:
		offset = (pod * nw.opt.M) % g
	case Pattern2:
		offset = (pod * (nw.opt.M + 1)) % g
	}
	return (edgeCol*g + (offset+idx)%g) % nw.clos.Cores
}
