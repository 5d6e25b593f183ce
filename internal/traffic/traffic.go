// Package traffic generates the workloads of the paper's evaluation: the
// four synthetic patterns of §5.1 (permutation, pod stride, hot spot,
// many-to-many), the clustered all-to-all traffic of Table 1, and seeded
// trace generators reproducing the locality statistics of the four Facebook
// data centers in §5.2 (Hadoop-1, Hadoop-2, Web, Cache).
//
// All generators address servers by their stable global index (pod-major,
// then edge switch, then slot), which is invariant across flat-tree mode
// conversions.
package traffic

import (
	"fmt"
	"math/rand"
)

// Pair is one source-destination demand between two servers, identified by
// global server index.
type Pair struct{ Src, Dst int }

// Permutation returns the §5.1 "traffic-1" pattern: every server sends one
// flow to a unique other server, chosen as a uniform random derangement.
func Permutation(n int, seed int64) []Pair {
	rng := rand.New(rand.NewSource(seed))
	perm := derangement(n, rng)
	out := make([]Pair, n)
	for i, d := range perm {
		out[i] = Pair{Src: i, Dst: d}
	}
	return out
}

// derangement draws a uniform permutation with no fixed points by
// rejection sampling (expected ~e attempts).
func derangement(n int, rng *rand.Rand) []int {
	if n < 2 {
		panic(fmt.Sprintf("traffic: derangement needs n >= 2, got %d", n))
	}
	for {
		p := rng.Perm(n)
		ok := true
		for i, v := range p {
			if i == v {
				ok = false
				break
			}
		}
		if ok {
			return p
		}
	}
}

// PodStride returns the §5.1 "traffic-2" pattern: every server sends a
// single flow to its counterpart in the next pod, stressing the network
// core. serversPerPod must divide n.
func PodStride(n, serversPerPod int) []Pair {
	if serversPerPod <= 0 || n%serversPerPod != 0 {
		panic(fmt.Sprintf("traffic: pod stride with n=%d, serversPerPod=%d", n, serversPerPod))
	}
	out := make([]Pair, n)
	for i := 0; i < n; i++ {
		out[i] = Pair{Src: i, Dst: (i + serversPerPod) % n}
	}
	return out
}

// HotSpot returns the §5.1 "traffic-3" pattern: every clusterSize servers
// form a cluster in which the first server broadcasts to all the others
// (the multicast phase of machine-learning jobs). Trailing servers that do
// not fill a cluster are idle.
func HotSpot(n, clusterSize int) []Pair {
	var out []Pair
	for base := 0; base+clusterSize <= n; base += clusterSize {
		for i := 1; i < clusterSize; i++ {
			out = append(out, Pair{Src: base, Dst: base + i})
		}
	}
	return out
}

// ManyToMany returns the §5.1 "traffic-4" pattern: every clusterSize
// servers form a cluster with all-to-all traffic (the shuffle phase of
// MapReduce jobs).
func ManyToMany(n, clusterSize int) []Pair {
	return ClusteredAllToAll(n, clusterSize)
}

// ClusteredAllToAll packs consecutive servers into clusters of the given
// size and creates all-to-all traffic within each cluster (Table 1's
// intra-tenant workload). Trailing servers that do not fill a cluster are
// idle.
func ClusteredAllToAll(n, clusterSize int) []Pair {
	if clusterSize < 2 {
		panic(fmt.Sprintf("traffic: cluster size %d", clusterSize))
	}
	var out []Pair
	for base := 0; base+clusterSize <= n; base += clusterSize {
		for i := 0; i < clusterSize; i++ {
			for j := 0; j < clusterSize; j++ {
				if i != j {
					out = append(out, Pair{Src: base + i, Dst: base + j})
				}
			}
		}
	}
	return out
}

// SyntheticPattern names one of the §5.1 patterns.
type SyntheticPattern int

const (
	// PatternPermutation is traffic-1.
	PatternPermutation SyntheticPattern = iota + 1
	// PatternPodStride is traffic-2.
	PatternPodStride
	// PatternHotSpot is traffic-3 (100-server clusters).
	PatternHotSpot
	// PatternManyToMany is traffic-4 (20-server clusters).
	PatternManyToMany
)

func (p SyntheticPattern) String() string {
	switch p {
	case PatternPermutation:
		return "traffic-1"
	case PatternPodStride:
		return "traffic-2"
	case PatternHotSpot:
		return "traffic-3"
	case PatternManyToMany:
		return "traffic-4"
	}
	return fmt.Sprintf("SyntheticPattern(%d)", int(p))
}

// Synthetic materializes a named pattern for n servers. The cluster sizes
// follow the paper (100 for hot spot, 20 for many-to-many) but are clamped
// to n to keep reduced-scale runs meaningful.
func Synthetic(p SyntheticPattern, n, serversPerPod int, seed int64) []Pair {
	switch p {
	case PatternPermutation:
		return Permutation(n, seed)
	case PatternPodStride:
		return PodStride(n, serversPerPod)
	case PatternHotSpot:
		return HotSpot(n, clamp(100, n))
	case PatternManyToMany:
		return ManyToMany(n, clamp(20, n))
	}
	panic(fmt.Sprintf("traffic: unknown pattern %d", int(p)))
}

func clamp(v, max int) int {
	if v > max {
		return max
	}
	return v
}

// Flow sizes are expressed in Gbit throughout this repository, matching
// the Gbps link capacities (so size/rate is seconds). These constants
// convert common byte quantities to Gbit.
const (
	KB = 8.0 * 1024 / 1e9
	MB = 8.0 * 1024 * 1024 / 1e9
	GB = 8.0 * 1024 * 1024 * 1024 / 1e9
)

// Flow is one finite transfer in a trace.
type Flow struct {
	Src, Dst int     // global server indices
	Bits     float64 // flow size in Gbit
	Arrival  float64 // seconds from trace start
}

// Locality classifies where a flow's destination lives relative to its
// source.
type Locality int

const (
	// IntraRack destinations share the source's edge switch.
	IntraRack Locality = iota
	// IntraPod destinations share the pod but not the rack.
	IntraPod
	// InterPod destinations are in a different pod.
	InterPod
)

// TraceSpec parameterizes a synthetic trace with controlled locality and
// flow size distribution, standing in for the unreleased Facebook traces
// (the paper itself reverse-engineered three of its four traces from the
// same published statistics).
type TraceSpec struct {
	Name           string
	Servers        int
	ServersPerRack int
	RacksPerPod    int
	// Fractions of traffic volume per locality class; must sum to <= 1,
	// the remainder is inter-pod.
	FracIntraRack float64
	FracIntraPod  float64
	// Flows and Duration set the Poisson arrival process.
	Flows    int
	Duration float64
	// SizeMedianGbit and SizeSigma parameterize the log-normal flow size
	// distribution.
	SizeMedianGbit float64
	SizeSigma      float64
	Seed           int64
}

// Validate checks spec consistency.
func (s TraceSpec) Validate() error {
	if s.Servers < 2 || s.ServersPerRack < 1 || s.RacksPerPod < 1 {
		return fmt.Errorf("traffic %q: bad shape", s.Name)
	}
	if s.Servers%(s.ServersPerRack*s.RacksPerPod) != 0 {
		return fmt.Errorf("traffic %q: servers %d not divisible by pod size %d",
			s.Name, s.Servers, s.ServersPerRack*s.RacksPerPod)
	}
	if s.FracIntraRack < 0 || s.FracIntraPod < 0 || s.FracIntraRack+s.FracIntraPod > 1 {
		return fmt.Errorf("traffic %q: bad locality fractions", s.Name)
	}
	if s.Flows < 1 || s.Duration <= 0 || s.SizeMedianGbit <= 0 {
		return fmt.Errorf("traffic %q: bad volume parameters", s.Name)
	}
	return nil
}

// Generate draws the trace: flow arrivals are Poisson over Duration,
// sources uniform, destinations drawn per the locality mix, sizes
// log-normal. It materializes the whole trace; large runs should drain
// NewStream instead, which produces the identical flow sequence.
func Generate(s TraceSpec) ([]Flow, error) {
	st, err := NewStream(s)
	if err != nil {
		return nil, err
	}
	flows := make([]Flow, 0, s.Flows)
	for {
		f, ok := st.Next()
		if !ok {
			return flows, nil
		}
		flows = append(flows, f)
	}
}

// drawDst picks a destination according to the locality fractions.
func drawDst(rng *rand.Rand, s TraceSpec, src, perPod, pods int) int {
	rack := src / s.ServersPerRack
	pod := src / perPod
	u := rng.Float64()
	switch {
	case u < s.FracIntraRack && s.ServersPerRack > 1:
		// Same rack, different server.
		for {
			d := rack*s.ServersPerRack + rng.Intn(s.ServersPerRack)
			if d != src {
				return d
			}
		}
	case u < s.FracIntraRack+s.FracIntraPod && s.RacksPerPod > 1:
		// Same pod, different rack.
		for {
			d := pod*perPod + rng.Intn(perPod)
			if d/s.ServersPerRack != rack {
				return d
			}
		}
	default:
		if pods == 1 {
			// Degenerate single-pod network: fall back to any other.
			for {
				d := rng.Intn(s.Servers)
				if d != src {
					return d
				}
			}
		}
		for {
			d := rng.Intn(s.Servers)
			if d/perPod != pod {
				return d
			}
		}
	}
}
