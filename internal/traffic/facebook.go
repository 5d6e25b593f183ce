package traffic

import (
	"fmt"
)

// The four Facebook data center workloads of §5.2, reproduced from the
// published statistics the paper itself used:
//
//	Hadoop-1: Coflow-benchmark shuffle trace — no locality; one-to-many,
//	          many-to-one and many-to-many traffic network-wide. The paper
//	          expands each rack-to-rack flow into 8 server flows at 10x
//	          volume; Hadoop1Trace does the same.
//	Hadoop-2: 75.7% intra-rack, almost all the rest intra-pod.
//	Web:      tiny intra-rack, ~77% intra-pod, rest inter-pod.
//	Cache:    almost zero intra-rack, ~88% intra-pod, rest inter-pod.

// FacebookSpec returns the TraceSpec for one of the named workloads on a
// network of the given shape. Scale sets the flow count; load and size
// parameters follow the measured heavy-tailed distributions in spirit.
func FacebookSpec(name string, servers, serversPerRack, racksPerPod, flows int, seed int64) (TraceSpec, error) {
	base := TraceSpec{
		Name:           name,
		Servers:        servers,
		ServersPerRack: serversPerRack,
		RacksPerPod:    racksPerPod,
		Flows:          flows,
		Duration:       1.0,
		Seed:           seed,
	}
	switch name {
	case "hadoop-2":
		base.FracIntraRack = 0.757
		base.FracIntraPod = 0.233 // "almost all the remaining traffic is intra-Pod"
		base.SizeMedianGbit = 200 * KB
		base.SizeSigma = 1.8
	case "web":
		base.FracIntraRack = 0.01 // "a tiny amount of intra-rack traffic"
		base.FracIntraPod = 0.77
		base.SizeMedianGbit = 50 * KB
		base.SizeSigma = 1.6
	case "cache":
		base.FracIntraRack = 0.0 // "almost zero intra-rack traffic"
		base.FracIntraPod = 0.88
		base.SizeMedianGbit = 500 * KB
		base.SizeSigma = 1.7
	default:
		return TraceSpec{}, fmt.Errorf("traffic: unknown Facebook workload %q", name)
	}
	return base, nil
}

// Hadoop1Trace reproduces the Hadoop-1 methodology: rack-level shuffle
// coflows with no locality. For each of coflows rack-to-rack transfers, 8
// server flows are created between servers under the source and destination
// racks, each carrying 10x the per-flow base volume (the paper's bandwidth
// adjustment from the 1 Gbps original fabric to 10 Gbps links).
func Hadoop1Trace(servers, serversPerRack, coflows int, baseGbit float64, duration float64, seed int64) []Flow {
	st := NewHadoop1Stream(servers, serversPerRack, coflows, baseGbit, duration, seed)
	flows := make([]Flow, 0, st.Len())
	for {
		f, ok := st.Next()
		if !ok {
			return flows
		}
		flows = append(flows, f)
	}
}
