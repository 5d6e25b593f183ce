// Package mcf approximates the two multi-commodity-flow linear programs the
// paper uses as throughput baselines (§5.1):
//
//   - "LP minimum": maximize the minimum flow throughput — the maximum
//     concurrent flow LP;
//   - "LP average": maximize the total (equivalently average) flow
//     throughput — the maximum multicommodity flow LP.
//
// Both are solved with the Garg–Könemann fully polynomial approximation
// scheme in Fleischer's phase formulation, followed by an exact feasibility
// rescale so the reported allocation never violates a capacity. The
// approximation replaces the paper's black-box LP solver; with the default
// ε the relative ordering of topologies — what the evaluation compares —
// is preserved.
//
// Links are full duplex: every undirected graph link becomes two directed
// arcs, each with the link's full capacity, matching real data center
// hardware and the paper's LP formulation.
package mcf

import (
	"container/heap"
	"fmt"
	"math"
	"time"

	"flattree/internal/graph"
	"flattree/internal/parallel"
	"flattree/internal/telemetry"
)

// Commodity is one source-destination demand. Demand is in the same units
// as link capacity; the evaluation uses unit demands.
type Commodity struct {
	Src, Dst int
	Demand   float64
}

// Result reports the approximate LP solution.
type Result struct {
	// Lambda is the concurrent-flow fraction: every commodity j is
	// guaranteed PerFlow[j] >= Lambda * Demand[j] for MaxConcurrent.
	Lambda float64
	// Total is the summed throughput of all commodities.
	Total float64
	// PerFlow is each commodity's throughput.
	PerFlow []float64
}

// Min returns the minimum per-flow throughput.
func (r Result) Min() float64 {
	if len(r.PerFlow) == 0 {
		return 0
	}
	min := math.Inf(1)
	for _, f := range r.PerFlow {
		if f < min {
			min = f
		}
	}
	return min
}

// Options tune the approximation.
type Options struct {
	// Epsilon is the FPTAS accuracy parameter, in (0, 1); 0 defaults to
	// 0.1.
	Epsilon float64
	// MaxPhases caps the number of phases as a safety valve; 0 means no
	// cap beyond the scheme's natural termination.
	MaxPhases int
}

// setDefaults rejects an ε outside the scheme's range (0, 1) — NaN,
// negative, or 1 and above, where a run at 5 printed NaN — and turns zero
// into 0.1.
func (o *Options) setDefaults() error {
	if math.IsNaN(o.Epsilon) || o.Epsilon < 0 || o.Epsilon >= 1 {
		return fmt.Errorf("mcf: Options.Epsilon %v (want > 0 and < 1; zero uses the default 0.1)", o.Epsilon)
	}
	if o.Epsilon == 0 {
		o.Epsilon = 0.1
	}
	return nil
}

// solver holds the directed-arc expansion and the GK state. Arc 2*l is the
// A->B direction of link l; arc 2*l+1 is B->A.
type solver struct {
	nodes int
	// out[u] lists (arc, to) pairs leaving u.
	outArc [][]int32
	outTo  [][]int32
	cap    []float64
	tails  []int32 // tails[a] = tail node of arc a
	comms  []Commodity
	eps    float64

	length  []float64 // per-arc dual length
	flow    []float64 // per-arc accumulated (unscaled) flow
	per     []float64 // per-commodity accumulated (unscaled) flow
	dualVal float64   // running D(l) = sum c_a * l_a

	// Reusable Dijkstra buffers.
	dist    []float64
	prevArc []int32
	done    []bool
	pq      arcHeap
}

func newSolver(g *graph.Graph, comms []Commodity, eps float64) *solver {
	n := g.NumNodes()
	m := 2 * g.NumLinks()
	s := &solver{
		nodes:   n,
		outArc:  make([][]int32, n),
		outTo:   make([][]int32, n),
		cap:     make([]float64, m),
		tails:   make([]int32, m),
		comms:   comms,
		eps:     eps,
		length:  make([]float64, m),
		flow:    make([]float64, m),
		per:     make([]float64, len(comms)),
		dist:    make([]float64, n),
		prevArc: make([]int32, n),
		done:    make([]bool, n),
	}
	for _, l := range g.Links() {
		s.cap[2*l.ID] = l.Capacity
		s.cap[2*l.ID+1] = l.Capacity
		s.tails[2*l.ID] = int32(l.A)
		s.tails[2*l.ID+1] = int32(l.B)
		s.outArc[l.A] = append(s.outArc[l.A], int32(2*l.ID))
		s.outTo[l.A] = append(s.outTo[l.A], int32(l.B))
		s.outArc[l.B] = append(s.outArc[l.B], int32(2*l.ID+1))
		s.outTo[l.B] = append(s.outTo[l.B], int32(l.A))
	}
	delta := s.delta()
	for a := range s.length {
		s.length[a] = delta / s.cap[a]
		s.dualVal += s.cap[a] * s.length[a]
	}
	return s
}

// delta is the standard GK starting length scale: (m/(1-ε))^(-1/ε) where m
// is the number of arcs.
func (s *solver) delta() float64 {
	m := float64(len(s.cap))
	return math.Pow(m/(1-s.eps), -1/s.eps)
}

// dual returns D(l) = Σ c_a l_a, the termination witness, maintained
// incrementally by route.
func (s *solver) dual() float64 { return s.dualVal }

// shortestPath runs Dijkstra under the current length function and returns
// the arc list of a shortest src->dst path and its length.
func (s *solver) shortestPath(src, dst int) ([]int32, float64, bool) {
	for i := range s.dist {
		s.dist[i] = math.Inf(1)
		s.prevArc[i] = -1
		s.done[i] = false
	}
	s.dist[src] = 0
	s.pq = s.pq[:0]
	heap.Push(&s.pq, arcItem{node: int32(src), dist: 0})
	for s.pq.Len() > 0 {
		it := heap.Pop(&s.pq).(arcItem)
		u := int(it.node)
		if s.done[u] {
			continue
		}
		s.done[u] = true
		if u == dst {
			break
		}
		arcs := s.outArc[u]
		tos := s.outTo[u]
		du := s.dist[u]
		for i, a := range arcs {
			v := tos[i]
			if s.done[v] {
				continue
			}
			nd := du + s.length[a]
			if nd < s.dist[v] {
				s.dist[v] = nd
				s.prevArc[v] = a
				heap.Push(&s.pq, arcItem{node: v, dist: nd})
			}
		}
	}
	if math.IsInf(s.dist[dst], 1) {
		return nil, 0, false
	}
	var arcs []int32
	for at := dst; at != src; {
		a := s.prevArc[at]
		arcs = append(arcs, a)
		at = int(s.tails[a])
	}
	// Reverse to src->dst order.
	for i, j := 0, len(arcs)-1; i < j; i, j = i+1, j-1 {
		arcs[i], arcs[j] = arcs[j], arcs[i]
	}
	return arcs, s.dist[dst], true
}

// sssp runs full Dijkstra from src, filling dist/prevArc for every node.
func (s *solver) sssp(src int) {
	for i := range s.dist {
		s.dist[i] = math.Inf(1)
		s.prevArc[i] = -1
		s.done[i] = false
	}
	s.dist[src] = 0
	s.pq = s.pq[:0]
	heap.Push(&s.pq, arcItem{node: int32(src), dist: 0})
	for s.pq.Len() > 0 {
		it := heap.Pop(&s.pq).(arcItem)
		u := int(it.node)
		if s.done[u] {
			continue
		}
		s.done[u] = true
		arcs := s.outArc[u]
		tos := s.outTo[u]
		du := s.dist[u]
		for i, a := range arcs {
			v := tos[i]
			if s.done[v] {
				continue
			}
			nd := du + s.length[a]
			if nd < s.dist[v] {
				s.dist[v] = nd
				s.prevArc[v] = a
				heap.Push(&s.pq, arcItem{node: v, dist: nd})
			}
		}
	}
}

// traceArcs reconstructs the src->dst arc path after sssp.
func (s *solver) traceArcs(src, dst int) []int32 {
	var arcs []int32
	for at := dst; at != src; {
		a := s.prevArc[at]
		arcs = append(arcs, a)
		at = int(s.tails[a])
	}
	for i, j := 0, len(arcs)-1; i < j; i, j = i+1, j-1 {
		arcs[i], arcs[j] = arcs[j], arcs[i]
	}
	return arcs
}

// route sends u units along the arc path, updating flows and lengths.
func (s *solver) route(j int, arcs []int32, u float64) {
	s.per[j] += u
	for _, a := range arcs {
		s.flow[a] += u
		old := s.length[a]
		s.length[a] = old * (1 + s.eps*u/s.cap[a])
		s.dualVal += s.cap[a] * (s.length[a] - old)
	}
}

// bottleneck returns the minimum capacity along the arc path.
func (s *solver) bottleneck(arcs []int32) float64 {
	u := math.Inf(1)
	for _, a := range arcs {
		if s.cap[a] < u {
			u = s.cap[a]
		}
	}
	return u
}

// rescale converts the accumulated (capacity-violating) flow into an
// exactly feasible allocation by dividing every flow by the maximum arc
// overuse factor.
func (s *solver) rescale() Result {
	worst := 1.0
	for a, c := range s.cap {
		if u := s.flow[a] / c; u > worst {
			worst = u
		}
	}
	res := Result{PerFlow: make([]float64, len(s.comms))}
	res.Lambda = math.Inf(1)
	for j := range s.comms {
		f := s.per[j] / worst
		res.PerFlow[j] = f
		res.Total += f
		if lam := f / s.comms[j].Demand; lam < res.Lambda {
			res.Lambda = lam
		}
	}
	if len(s.comms) == 0 {
		res.Lambda = 0
	}
	return res
}

// checkConnectivity verifies every commodity's destination is reachable
// from its source before the solve starts. The per-source searches are
// independent and run on the shared bounded pool; the reported error is
// always the lowest-index disconnected commodity, so the error is
// deterministic for any worker count.
func (s *solver) checkConnectivity(comms []Commodity, srcs []int, bySrc map[int][]int) error {
	reach, _ := parallel.Map(parallel.Default(), len(srcs), func(i int) ([]bool, error) {
		// Lengths are uniformly positive, so plain BFS over the arc
		// adjacency decides reachability; each task owns its visited set.
		visited := make([]bool, s.nodes)
		visited[srcs[i]] = true
		queue := []int{srcs[i]}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range s.outTo[u] {
				if !visited[v] {
					visited[v] = true
					queue = append(queue, int(v))
				}
			}
		}
		return visited, nil
	})
	telemetry.C("mcf_connectivity_checks_total").Add(int64(len(srcs)))
	for i, src := range srcs {
		for _, j := range bySrc[src] {
			if !reach[i][comms[j].Dst] {
				return fmt.Errorf("mcf: commodity %d (%d->%d) disconnected", j, comms[j].Src, comms[j].Dst)
			}
		}
	}
	return nil
}

// parallelTraceThreshold is the commodity count per source above which the
// post-Dijkstra path traces fan out on the pool. Tracing reads only the
// frozen shortest-path tree (prevArc/tails), so parallel traces are
// byte-identical to serial ones; below the threshold, goroutine handoff
// costs more than the traces themselves.
const parallelTraceThreshold = 16

// traceAll reconstructs the arc path for every commodity of one source
// from the current shortest-path tree, fanning out on the pool when the
// commodity count justifies it. Unreachable destinations (impossible
// after the connectivity prepass, but kept defensive) yield nil; the
// caller's reachability check reports them.
func (s *solver) traceAll(src int, js []int) [][]int32 {
	trace := func(j int) []int32 {
		if math.IsInf(s.dist[s.comms[j].Dst], 1) {
			return nil
		}
		return s.traceArcs(src, s.comms[j].Dst)
	}
	if len(js) < parallelTraceThreshold {
		out := make([][]int32, len(js))
		for i, j := range js {
			out[i] = trace(j)
		}
		return out
	}
	out, _ := parallel.Map(parallel.Default(), len(js), func(i int) ([]int32, error) {
		return trace(js[i]), nil
	})
	return out
}

// MaxConcurrent approximates the maximum concurrent flow ("LP minimum"):
// the largest λ such that every commodity can ship λ·demand concurrently.
// Every commodity's reported throughput is at least Lambda·Demand.
//
// The solve is deterministic: phases, sources, and commodities are
// processed in fixed order, and the only parallel pieces (the
// connectivity prepass and per-source path traces) are read-only fan-outs
// collected by index, so the result is bit-identical for any pool size.
func MaxConcurrent(g *graph.Graph, comms []Commodity, opt Options) (Result, error) {
	if err := opt.setDefaults(); err != nil {
		return Result{}, err
	}
	if err := checkCommodities(g, comms); err != nil {
		return Result{}, err
	}
	start := time.Now()
	dijkstras := int64(0)
	s := newSolver(g, comms, opt.Epsilon)
	// Group commodities by source so one shortest-path tree per source
	// serves every commodity of that source within a phase. Routing a
	// unit of demand inflates the lengths on its path by at most a
	// (1+ε/c_min) factor, so tree paths stay within Fleischer's per-phase
	// length tolerance; the final rescale keeps the result exactly
	// feasible regardless.
	bySrc := make(map[int][]int)
	var srcs []int
	for j, c := range comms {
		if _, seen := bySrc[c.Src]; !seen {
			srcs = append(srcs, c.Src)
		}
		bySrc[c.Src] = append(bySrc[c.Src], j)
	}
	if err := s.checkConnectivity(comms, srcs, bySrc); err != nil {
		return Result{}, err
	}
	phases := 0
	for s.dual() < 1 {
		for _, src := range srcs {
			s.sssp(src)
			dijkstras++
			js := bySrc[src]
			arcsFor := s.traceAll(src, js)
			for ji, j := range js {
				c := comms[j]
				if math.IsInf(s.dist[c.Dst], 1) {
					return Result{}, fmt.Errorf("mcf: commodity %d (%d->%d) disconnected", j, c.Src, c.Dst)
				}
				arcs := arcsFor[ji]
				remaining := c.Demand
				for remaining > 1e-15 {
					u := remaining
					if b := s.bottleneck(arcs); b < u {
						u = b
					}
					s.route(j, arcs, u)
					remaining -= u
					if remaining > 1e-15 {
						// Rare: demand above the path bottleneck.
						// Recompute a fresh path for the remainder.
						var ok bool
						dijkstras++
						arcs, _, ok = s.shortestPath(c.Src, c.Dst)
						if !ok {
							return Result{}, fmt.Errorf("mcf: commodity %d (%d->%d) disconnected", j, c.Src, c.Dst)
						}
					}
				}
			}
			if s.dual() >= 1 {
				break
			}
		}
		phases++
		if opt.MaxPhases > 0 && phases >= opt.MaxPhases {
			break
		}
	}
	recordSolve("concurrent", phases, dijkstras, time.Since(start))
	return s.rescale(), nil
}

// recordSolve flushes one LP solve's telemetry: GK phase and Dijkstra
// totals plus wall time, labeled by objective.
func recordSolve(objective string, phases int, dijkstras int64, wall time.Duration) {
	telemetry.C("mcf_solves_total", "objective", objective).Inc()
	telemetry.C("mcf_phases_total", "objective", objective).Add(int64(phases))
	telemetry.C("mcf_dijkstras_total", "objective", objective).Add(dijkstras)
	telemetry.H("mcf_solve_seconds", "objective", objective).Observe(wall.Seconds())
}

// MaxTotal approximates the maximum total multicommodity flow ("LP
// average"): throughput is pushed wherever it is cheapest, so some flows
// may receive zero while others saturate — exactly the behaviour the paper
// notes for LP average in Figure 7.
func MaxTotal(g *graph.Graph, comms []Commodity, opt Options) (Result, error) {
	if err := opt.setDefaults(); err != nil {
		return Result{}, err
	}
	if err := checkCommodities(g, comms); err != nil {
		return Result{}, err
	}
	start := time.Now()
	phases := 0
	dijkstras := int64(0)
	s := newSolver(g, comms, opt.Epsilon)
	// Fleischer's threshold scheme: sweep commodities, routing each while
	// its shortest path stays below the rising threshold α(1+ε). Arc
	// lengths only grow, so a commodity's last observed distance is a
	// permanent lower bound — commodities whose bound already exceeds the
	// threshold are skipped without a Dijkstra.
	lastLen := make([]float64, len(comms))
	reachable := make([]bool, len(comms))
	for i := range reachable {
		reachable[i] = true
	}
	for alpha := s.delta(); alpha < 1; alpha *= 1 + opt.Epsilon {
		phases++
		limit := alpha * (1 + opt.Epsilon)
		if limit > 1 {
			limit = 1
		}
		for j, c := range comms {
			if !reachable[j] || lastLen[j] >= limit {
				continue
			}
			for {
				dijkstras++
				arcs, d, ok := s.shortestPath(c.Src, c.Dst)
				if !ok {
					reachable[j] = false
					break
				}
				lastLen[j] = d
				if d >= limit {
					break
				}
				s.route(j, arcs, s.bottleneck(arcs))
			}
		}
	}
	recordSolve("total", phases, dijkstras, time.Since(start))
	return s.rescale(), nil
}

func checkCommodities(g *graph.Graph, comms []Commodity) error {
	for j, c := range comms {
		if c.Src < 0 || c.Src >= g.NumNodes() || c.Dst < 0 || c.Dst >= g.NumNodes() {
			return fmt.Errorf("mcf: commodity %d endpoints out of range", j)
		}
		if c.Src == c.Dst {
			return fmt.Errorf("mcf: commodity %d is a self-loop", j)
		}
		if c.Demand <= 0 {
			return fmt.Errorf("mcf: commodity %d has nonpositive demand", j)
		}
	}
	return nil
}

type arcItem struct {
	node int32
	dist float64
}

type arcHeap []arcItem

func (h arcHeap) Len() int            { return len(h) }
func (h arcHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h arcHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *arcHeap) Push(x interface{}) { *h = append(*h, x.(arcItem)) }
func (h *arcHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
