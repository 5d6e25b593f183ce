package flowsim

import (
	"testing"
)

// FuzzScheduleRun feeds byte-derived (ConnSpec list, TopoEvent list)
// scenarios — stalls, retries, reroutes, disconnects, repairs, horizon
// cutoffs, capacity zeroing, loopback and duplicate-link paths — through
// both simulator cores and requires identical outcomes, then streams the
// scenario's arrival-sorted copy through RunStream against the reference
// on that copy. The decoder quantizes every value into the domain both
// cores define behavior for (finite sizes, non-negative capacities), so
// any divergence is a core bug, not an input-validation asymmetry. The seed corpus under
// testdata/fuzz covers each event kind; CI runs a randomized burst on
// top (see .github/workflows/ci.yml).

// fzReader draws bounded values from the fuzz input, treating exhausted
// input as zeros so every byte string decodes to a valid scenario.
type fzReader struct {
	data []byte
	i    int
}

func (f *fzReader) byte() byte {
	if f.i >= len(f.data) {
		return 0
	}
	b := f.data[f.i]
	f.i++
	return b
}

func (f *fzReader) intn(n int) int { return int(f.byte()) % n }

func (f *fzReader) decodePaths(nLinks int) [][]int {
	np := f.intn(4)
	paths := make([][]int, 0, np)
	for p := 0; p < np; p++ {
		hops := f.intn(4) // 0 hops = loopback subflow
		links := make([]int, hops)
		for h := range links {
			links[h] = f.intn(nLinks) // duplicates allowed
		}
		paths = append(paths, links)
	}
	return paths
}

// decodeScenario turns fuzz bytes into a runnable churn workload. Every
// scenario is scheduled (graceful mode), so empty path sets stall rather
// than error.
func decodeScenario(data []byte) diffScenario {
	f := &fzReader{data: data}
	nLinks := 1 + f.intn(12)
	caps := make([]float64, nLinks)
	for l := range caps {
		caps[l] = float64(f.intn(16)) // 0 is legal: a dead link
	}
	nConns := 1 + f.intn(16)
	specs := make([]ConnSpec, nConns)
	weights := [4]float64{0, 0.5, 1, 2}
	for i := range specs {
		specs[i] = ConnSpec{
			Paths:   f.decodePaths(nLinks),
			Bits:    0.25 * float64(1+f.intn(64)),
			Arrival: 0.25 * float64(f.intn(16)),
			Weight:  weights[f.intn(4)],
		}
	}
	sc := diffScenario{caps: caps, specs: specs}
	nEvents := f.intn(8)
	capVals := [4]float64{0, 0, 5, 10}
	for e := 0; e < nEvents; e++ {
		ev := TopoEvent{Time: 0.25 * float64(f.intn(24))}
		switch f.intn(3) {
		case 0, 1:
			ev.SetCaps = map[int]float64{}
			for k := 0; k < 1+f.intn(3); k++ {
				ev.SetCaps[f.intn(nLinks)] = capVals[f.intn(4)]
			}
		case 2:
			ev.Reroute = map[int][][]int{}
			for k := 0; k < 1+f.intn(3); k++ {
				ev.Reroute[f.intn(nConns)] = f.decodePaths(nLinks)
			}
		}
		sc.events = append(sc.events, ev)
	}
	if sc.events == nil {
		sc.events = []TopoEvent{} // still Schedule: graceful mode on
	}
	sc.horizon = [3]float64{0, 4, 8}[f.intn(3)]
	return sc
}

func FuzzScheduleRun(f *testing.F) {
	// One seed per behavior class: static multipath, failures with
	// repair, reroute/disconnect churn, horizon cutoff, dense mixed load.
	f.Add([]byte{})
	f.Add([]byte("\x05\x03\x07\x02\x01\x02\x00\x01\x08\x10\x01\x00"))
	f.Add([]byte("flat-tree convertible fabrics"))
	f.Add([]byte("\x0b\x0f\x00\x05\x08\x04\x02\x02\x01\x00\x03\x01\x02\x02\x06\x09\x01\x05\x02\x02\x00\x00\x02\x01\x01\x00\x02\x02\x01\x07"))
	f.Add([]byte("\x03\x00\x00\x00\x02\x01\x01\x00\x01\x01\x20\x04\x01\x06\x02\x00\x01\x02\x01\x01\x01\x03\x02\x01\x00\x02"))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := decodeScenario(data)
		got, gotErr := sc.sim().Run()
		want, wantErr := sc.sim().runReference()
		requireIdentical(t, 0, got, want, gotErr, wantErr)
		sorted := arrivalSorted(sc)
		got, gotErr = runStreamed(t, 0, sorted)
		want, wantErr = sorted.sim().runReference()
		requireIdentical(t, 0, got, want, gotErr, wantErr)
	})
}
