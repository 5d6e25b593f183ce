package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// childReport is what one workload process prints as its last line.
type childReport struct {
	// Ready is when set-up finished, in Unix nanoseconds.
	Ready int64 `json:"ready_unix_nano"`
	// Passes and Traced are the wall times of untraced and traced timed
	// passes, in seconds.
	Passes    []float64          `json:"passes"`
	Traced    []float64          `json:"traced_passes"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	// Client holds the load generator's untraced latency and capacity
	// figures (flatd_live only).
	Client map[string]float64 `json:"client,omitempty"`
	// Pins holds the digests a -pin run computed.
	Pins map[string]string `json:"pins,omitempty"`
}

// maxFailureNotes bounds the failure messages a report carries.
const maxFailureNotes = 20

// child is one workload process: it sets up, runs timed passes within its
// budget, checks every output, and reports.
type child struct {
	workload string
	seed     int64
	proc     int // index of this process in its run
	budget   time.Duration
	traceRun bool // alternate traced and untraced passes
	work     bool // false: set up, report and exit
	// capacityOnly makes flatd_live skip its mix and quote phases.
	capacityOnly bool
	tr           *tracer
	// pins are the workload's pinned digests, nil when the seed has none;
	// pinning collects digests instead of checking them.
	pins    map[string]string
	pinning bool

	setupSpan int

	mu     sync.Mutex
	rep    childReport
	counts map[int]map[string]float64 // pass (-1 = set-up) -> count metric -> value
	rtime  []map[string]float64       // runtime deltas of untraced passes in a traced run
}

func newChild(workload string, seed int64) *child {
	c := &child{workload: workload, seed: seed, tr: newTracer(), counts: map[int]map[string]float64{}}
	c.rep.Layers = map[string]float64{}
	return c
}

// ok counts one operation that passed its checks.
func (c *child) ok() {
	c.mu.Lock()
	c.rep.Attempted++
	c.mu.Unlock()
}

// fail counts one failed operation.
func (c *child) fail(format string, args ...interface{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rep.Attempted++
	c.rep.Failed++
	if len(c.rep.Failures) < maxFailureNotes {
		c.rep.Failures = append(c.rep.Failures, fmt.Sprintf(format, args...))
	}
}

// digestOK compares a digest with its pin (or records it when pinning).
// Without pins for this seed, only invariants are checked and every
// digest passes.
func (c *child) digestOK(key, digest string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pinning {
		if c.rep.Pins == nil {
			c.rep.Pins = map[string]string{}
		}
		c.rep.Pins[key] = digest
		return true
	}
	if c.pins == nil {
		return true
	}
	return c.pins[key] == digest
}

// count adds to a per-layer count of the current pass.
func (c *child) count(metric string, v float64) {
	p := int(c.tr.pass.Load())
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.counts[p]
	if m == nil {
		m = map[string]float64{}
		c.counts[p] = m
	}
	m[metric] += v
}

// ready ends set-up. It reports whether the process should go on to the
// timed work.
func (c *child) ready() bool {
	c.tr.end(c.setupSpan)
	c.rep.Ready = time.Now().UnixNano()
	return c.work
}

// loop runs timed passes until the next one would overrun the budget:
// at least one. A traced run starts with an untimed warm-up pass, so
// neither sample holds the cold pass, and then alternates traced (odd) and
// untraced (even) passes, at least one of each, so the trace overhead is
// measured in one process. A pass returns the checks of its outputs,
// which run after its clock stops.
func (c *child) loop(pass func(parent int) (check func(), err error)) error {
	start := time.Now()
	minPasses := 1
	if c.traceRun {
		minPasses = 3
	}
	for i := 0; ; i++ {
		traced := c.passTraced(i)
		warmup := c.traceRun && i == 0
		c.tr.pass.Store(int64(i))
		c.tr.on.Store(traced)
		var ms0 runtime.MemStats
		if c.traceRun && !traced {
			runtime.ReadMemStats(&ms0)
		}
		t0 := time.Now()
		sp := c.tr.begin("phase.pass", -1)
		check, err := pass(sp)
		c.tr.end(sp)
		d := time.Since(t0)
		c.tr.on.Store(false)
		if err != nil {
			return err
		}
		switch {
		case warmup:
		case traced:
			c.rep.Traced = append(c.rep.Traced, d.Seconds())
		default:
			c.rep.Passes = append(c.rep.Passes, d.Seconds())
			if c.traceRun {
				var ms1 runtime.MemStats
				runtime.ReadMemStats(&ms1)
				c.rtime = append(c.rtime, runtimeDelta(&ms0, &ms1))
			}
		}
		check()
		if i+1 >= minPasses && time.Since(start)+d > c.budget {
			return nil
		}
	}
}

func runtimeDelta(a, b *runtime.MemStats) map[string]float64 {
	return map[string]float64{
		"runtime.alloc_mb":    float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20),
		"runtime.mallocs":     float64(b.Mallocs - a.Mallocs),
		"runtime.gc_cycles":   float64(b.NumGC - a.NumGC),
		"runtime.gc_pause_ms": float64(b.PauseTotalNs-a.PauseTotalNs) / 1e6,
	}
}

// checkCounts fails the run when a pass's counts differ from the first
// pass's: every pass does the same work, so its counts repeat exactly.
func (c *child) checkCounts() {
	var passes []int
	for p := range c.counts {
		if p >= 0 {
			passes = append(passes, p)
		}
	}
	sort.Ints(passes)
	for _, p := range passes[min(1, len(passes)):] {
		for k, v := range c.counts[passes[0]] {
			if c.counts[p][k] != v {
				c.fail("pass %d: count %s = %v, first pass %v", p, k, c.counts[p][k], v)
			}
		}
	}
}

// spanMetric maps a span name to the per-layer time metric it sums into.
var spanMetric = map[string]string{
	"experiments.network": "experiments.network_s",
	"core.realize":        "core.realize_s",
	"topo.build":          "topo.build_s",
	"routing.build":       "routing.build_s",
	"routing.paths":       "routing.paths_s",
	"traffic.gen":         "traffic.gen_s",
	"flowsim.run":         "flowsim.run_s",
	"flowsim.sink":        "flowsim.sink_s",
	"churn.compile":       "churn.compile_s",
	"churn.trace":         "churn.trace_s",
	"service.new":         "service.new_s",
}

// selfMetric maps a span name to the per-layer metric that sums its self
// time.
var selfMetric = map[string]string{
	"phase.setup":    "bench.setup_self_s",
	"phase.pass":     "bench.timed_self_s",
	"flowsim.stream": "flowsim.stream_self_s",
}

// layerMetrics turns the recorded spans and counts into per-layer
// metrics: each is its set-up total plus its median over traced passes.
func (c *child) layerMetrics() map[string]float64 {
	spans := c.tr.all()
	self := selfTimes(spans)
	byPass := map[int]map[string]float64{}
	add := func(pass int, k string, v float64) {
		m := byPass[pass]
		if m == nil {
			m = map[string]float64{}
			byPass[pass] = m
		}
		m[k] += v
	}
	runMax := map[int]float64{}
	for i, s := range spans {
		sec := float64(s.dur()) / 1e9
		if m, ok := spanMetric[s.Name]; ok {
			add(s.Pass, m, sec)
		}
		if m, ok := selfMetric[s.Name]; ok {
			add(s.Pass, m, float64(self[i])/1e9)
		}
		switch {
		case s.Name == "routing.build":
			add(s.Pass, "routing.builds", 1)
		case s.Name == "flowsim.run":
			runMax[s.Pass] = max(runMax[s.Pass], sec)
		case strings.HasPrefix(s.Name, "service.") && s.Name != "service.new":
			ep := strings.TrimPrefix(s.Name, "service.")
			add(s.Pass, "service."+ep+".busy_s", sec)
			add(s.Pass, "service."+ep+".n", 1)
			if s.Status >= 400 || s.Status == 0 {
				add(s.Pass, "service."+ep+".errors", 1)
			}
		case strings.HasPrefix(s.Name, "loadgen."):
			add(s.Pass, "loadgen.self_s", float64(self[i])/1e9)
		}
	}
	for p, v := range runMax {
		add(p, "flowsim.run_max_s", v)
	}
	for p, m := range c.counts {
		for k, v := range m {
			add(p, k, v)
		}
	}
	out := map[string]float64{}
	for k, v := range byPass[-1] {
		out[k] += v
	}
	perPass := map[string][]float64{}
	var traced []int
	for p := range byPass {
		if p >= 0 && c.passTraced(p) {
			traced = append(traced, p)
		}
	}
	for _, p := range traced {
		for k, v := range byPass[p] {
			perPass[k] = append(perPass[k], v)
		}
	}
	for k, vs := range perPass {
		// A metric absent from some traced pass read 0 there.
		for len(vs) < len(traced) {
			vs = append(vs, 0)
		}
		out[k] += median(vs)
	}
	rt := map[string][]float64{}
	for _, d := range c.rtime {
		for k, v := range d {
			rt[k] = append(rt[k], v)
		}
	}
	for k, vs := range rt {
		out[k] = median(vs)
	}
	return out
}

// passTraced reports whether pass p runs with tracing on; loop traces the
// odd passes.
func (c *child) passTraced(p int) bool { return c.traceRun && p%2 == 1 }
