package core

import (
	"math"

	"flattree/internal/parallel"
	"flattree/internal/topo"
)

// ProfileResult is one (n, m) candidate evaluated by ProfileMN.
type ProfileResult struct {
	N, M int
	// AvgPathLength is the mean switch-level hop distance between the
	// attachment switches of sampled server pairs in global mode.
	AvgPathLength float64
}

// ProfileMN implements the server-distribution profiling of §3.4: under the
// given wiring pattern, it sweeps feasible (n, m) combinations and measures
// the average path length over server pairs in global mode, returning every
// candidate and the best one (shortest average path; ties prefer more
// relocation capacity, then larger m). sampleStride > 1 samples every
// sampleStride-th server as a BFS source to bound cost on large networks.
// Candidates are evaluated on the default worker pool; all is in sweep
// order and best is chosen in that order, so neither depends on the pool
// size.
func ProfileMN(clos topo.ClosParams, pattern Pattern, sampleStride int) (best ProfileResult, all []ProfileResult, err error) {
	if sampleStride < 1 {
		sampleStride = 1
	}
	g := clos.AggUplinks / clos.R()
	max := g
	if clos.ServersPerEdge < max {
		max = clos.ServersPerEdge
	}
	var cands []Options
	for total := 1; total <= max; total++ {
		for m := 0; m <= total; m++ {
			cands = append(cands, Options{N: total - m, M: m, Pattern: pattern})
		}
	}
	// An infeasible candidate leaves its slot nil.
	evals, _ := parallel.Map(parallel.Default(), len(cands), func(i int) (*ProfileResult, error) {
		nw, err := New(clos, cands[i])
		if err != nil {
			return nil, nil
		}
		nw.SetMode(ModeGlobal)
		return &ProfileResult{N: cands[i].N, M: cands[i].M, AvgPathLength: serverAPL(nw.Realize(), sampleStride)}, nil
	})
	best.AvgPathLength = math.Inf(1)
	for _, res := range evals {
		if res == nil {
			continue
		}
		all = append(all, *res)
		apl, n, m := res.AvgPathLength, res.N, res.M
		if apl < best.AvgPathLength-1e-12 ||
			(math.Abs(apl-best.AvgPathLength) <= 1e-12 && (n+m > best.N+best.M ||
				(n+m == best.N+best.M && m > best.M))) {
			best = *res
		}
	}
	if math.IsInf(best.AvgPathLength, 1) {
		return best, all, errNoFeasible(clos)
	}
	return best, all, nil
}

func errNoFeasible(clos topo.ClosParams) error {
	return &noFeasibleError{name: clos.Name}
}

type noFeasibleError struct{ name string }

func (e *noFeasibleError) Error() string {
	return "core: no feasible (n, m) for " + e.name
}

// serverAPL measures the mean hop distance between the attachment switches
// of server pairs, over every strideth server as the source and every
// other server as the destination; unreachable pairs are left out.
//
// A pair's distance is its switches' distance, so the work is per switch:
// one BFS per distinct sampled source switch, reduced to a row holding the
// sum over reachable switches b of servers(b)·d and of servers(b). Each
// sampled server adds its switch's row, less one pair for itself (at
// distance 0). The sums are integers, so the result equals the per-pair
// float64 sum bit for bit while every partial sum stays below 2^53.
func serverAPL(r *Realization, stride int) float64 {
	t := r.Topo
	servers := t.Servers()
	attach := make([]int, len(servers))
	onSwitch := make([]int64, t.G.NumNodes())
	for i, s := range servers {
		attach[i] = t.AttachedSwitch(s)
		onSwitch[attach[i]]++
	}
	type row struct {
		total, count int64
		done         bool
	}
	rows := make([]row, t.G.NumNodes())
	var total, count int64
	for i := 0; i < len(servers); i += stride {
		rw := &rows[attach[i]]
		if !rw.done {
			for b, d := range t.G.BFSDistances(attach[i]) {
				if d >= 0 && onSwitch[b] > 0 {
					rw.total += onSwitch[b] * int64(d)
					rw.count += onSwitch[b]
				}
			}
			rw.done = true
		}
		total += rw.total
		count += rw.count - 1
	}
	if count == 0 {
		return 0
	}
	return float64(total) / float64(count)
}
