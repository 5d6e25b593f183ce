package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"flattree/internal/control"
	"flattree/internal/core"
	"flattree/internal/service"
	"flattree/internal/telemetry"
	"flattree/internal/topo"
)

// flatd_live serves an in-process daemon built the way cmd/flatd builds it
// by default (mini-1, every pod Clos, k=8, 50 ms detection, parallel rule
// pricing, global telemetry with a 512-span limit) on a loopback listener,
// and drives it through three phases over at most `workers()` connections:
//
//   - mix, an open loop of seeded arrivals for half the run's seconds: /routes at
//     800/s on random server pairs, /topology at 20/s, /metrics at 1/s, and
//     /events/link at 20/s as fail→repair pairs on seeded switch
//     adjacencies, sent in order one at a time;
//   - capacity, a closed loop of /routes back to back on every connection
//     while link events go on at 20/s, repeated flatdCapReps times in
//     each of the run's processes; its median wall time is the workload's
//     run_s;
//   - quote, a closed loop of one client pricing flatdQuotes conversions
//     sampled from the 80 pod-mode vectors that differ from the live state.
//
// The counts of each mix class are fixed by rate times duration and their
// times drawn uniformly, which is a Poisson process conditioned on its
// count: every percentile then has its samples.
const (
	flatdK          = 8
	flatdDetection  = 0.05
	flatdSpanLimit  = 512
	flatdRoutesRate = 800
	flatdTopoRate   = 20
	flatdMetricRate = 1
	flatdEventRate  = 20
	flatdCapReqs    = 6000
	flatdCapReps    = 4
	flatdQuotes     = 20
	flatdTimeout    = 10 * time.Second
)

// flatdState is the serving daemon and what the request schedule is
// drawn from.
type flatdState struct {
	servers []int
	adjs    [][2]int
	pods    int
	fp      string
	srv     *service.Server
	hs      *http.Server
	base    string
	served  chan error
}

// benchHandler wraps Server.Handler(): while tracing is on it records one
// server span per request under the request id the client sent.
type benchHandler struct {
	tr    *tracer
	inner http.Handler
}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (h benchHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.tr.on.Load() {
		h.inner.ServeHTTP(w, r)
		return
	}
	start := h.tr.now()
	sw := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	h.inner.ServeHTTP(sw, r)
	req, _ := strconv.ParseInt(r.Header.Get(hdrRequest), 10, 64)
	h.tr.add(spanRec{Name: "service." + r.Header.Get(hdrOp), Start: start, End: h.tr.now(), Parent: -1, Req: req, Status: sw.status})
}

// flatdServer builds the daemon the way cmd/flatd does by default. The
// healthy route table is built first, in its own span; service.New then
// finds it in the route cache.
func flatdServer(c *child) (*flatdState, error) {
	t, nw, err := flatTree(c, core.ModeClos)
	if err != nil {
		return nil, err
	}
	buildTable(c, t, flatdK)
	pods := len(nw.PodModes())
	reg := telemetry.Enable()
	reg.SetRootSpanLimit(flatdSpanLimit)
	delay := control.TestbedDelayModel()
	delay.Parallel = true
	sp := c.tr.begin("service.new", c.setupSpan)
	srv, err := service.New(service.Config{
		Network:        nw,
		K:              flatdK,
		Detection:      flatdDetection,
		Delay:          delay,
		Registry:       reg,
		RequestTimeout: flatdTimeout,
		DrainTimeout:   15 * time.Second,
	})
	c.tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &flatdState{servers: t.Servers(), adjs: switchAdjacencies(t), pods: pods, fp: t.Fingerprint(), srv: srv}, nil
}

// serve starts serving the wrapped handler on a loopback listener.
func (st *flatdState) serve(tr *tracer) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	st.hs = &http.Server{
		Handler:           benchHandler{tr: tr, inner: st.srv.Handler()},
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	st.base = "http://" + ln.Addr().String()
	st.served = make(chan error, 1)
	go func() { st.served <- st.hs.Serve(ln) }()
	return nil
}

// stop shuts the server down and waits for it.
func (st *flatdState) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	err := st.hs.Shutdown(ctx)
	if serr := <-st.served; serr != nil && serr != http.ErrServerClosed {
		return serr
	}
	return err
}

// switchAdjacencies lists the distinct switch-to-switch node pairs.
func switchAdjacencies(t *topo.Topology) [][2]int {
	seen := map[[2]int]bool{}
	var out [][2]int
	for _, l := range t.G.Links() {
		if t.Nodes[l.A].Kind == topo.Server || t.Nodes[l.B].Kind == topo.Server {
			continue
		}
		k := [2]int{min(l.A, l.B), max(l.A, l.B)}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// quoteVectors lists every per-pod mode vector except all-Clos, the live
// state.
func quoteVectors(pods int) [][]string {
	modes := []string{core.ModeClos.String(), core.ModeLocal.String(), core.ModeGlobal.String()}
	var out [][]string
	n := 1
	for i := 0; i < pods; i++ {
		n *= len(modes)
	}
	for v := 1; v < n; v++ {
		vec := make([]string, pods)
		for p, x := 0, v; p < pods; p++ {
			vec[p] = modes[x%len(modes)]
			x /= len(modes)
		}
		out = append(out, vec)
	}
	return out
}

// The request builders shared by the workload and the pins.

func eventRequest(action string, adj [2]int) request {
	body, _ := json.Marshal(map[string]interface{}{"action": action, "a": adj[0], "b": adj[1]})
	return request{op: action, method: http.MethodPost, target: "/events/link", body: body}
}

func eventKey(action string, adj [2]int) string {
	return fmt.Sprintf("%s %d-%d", action, adj[0], adj[1])
}

func quoteRequest(vec []string) request {
	body, _ := json.Marshal(map[string]interface{}{"modes": vec})
	return request{op: "quote", method: http.MethodPost, target: "/quote/convert", body: body}
}

func quoteKey(vec []string) string { return "quote " + strings.Join(vec, ",") }

// flatdPlan is one run's seeded request schedule.
type flatdPlan struct {
	mixReads, mixWrites []request
	capReads            [][]request
	capWrites           [][]request
	quotes              []request
	keys                map[int64]string // pinned-digest key of each write and quote
}

func (st *flatdState) plan(seed int64, mix time.Duration) *flatdPlan {
	rng := rand.New(rand.NewSource(seed))
	p := &flatdPlan{keys: map[int64]string{}}
	var id int64
	stamp := func(r request) request {
		id++
		r.id = id
		return r
	}
	// uniform returns n sorted due times in [0, d).
	uniform := func(n int, d time.Duration) []time.Duration {
		ts := make([]time.Duration, n)
		for i := range ts {
			ts[i] = time.Duration(rng.Int63n(int64(d)))
		}
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		return ts
	}
	route := func() request {
		src := st.servers[rng.Intn(len(st.servers))]
		dst := src
		for dst == src {
			dst = st.servers[rng.Intn(len(st.servers))]
		}
		return request{op: "routes", method: http.MethodGet, target: fmt.Sprintf("/routes?src=%d&dst=%d", src, dst)}
	}
	events := func(n int, d time.Duration) []request {
		ts := uniform(n, d)
		out := make([]request, 0, n)
		for i := 0; i+1 < n; i += 2 {
			adj := st.adjs[rng.Intn(len(st.adjs))]
			for j, action := range []string{"fail", "repair"} {
				r := stamp(eventRequest(action, adj))
				r.due = ts[i+j]
				p.keys[r.id] = eventKey(action, adj)
				out = append(out, r)
			}
		}
		return out
	}
	secs := mix.Seconds()
	type class struct {
		rate float64
		make func() request
	}
	for _, cl := range []class{
		{flatdRoutesRate, route},
		{flatdTopoRate, func() request { return request{op: "topology", method: http.MethodGet, target: "/topology"} }},
		{flatdMetricRate, func() request { return request{op: "metrics", method: http.MethodGet, target: "/metrics"} }},
	} {
		for _, due := range uniform(int(cl.rate*secs+0.5), mix) {
			r := stamp(cl.make())
			r.due = due
			p.mixReads = append(p.mixReads, r)
		}
	}
	sort.SliceStable(p.mixReads, func(i, j int) bool { return p.mixReads[i].due < p.mixReads[j].due })
	p.mixWrites = events(int(flatdEventRate*secs+0.5), mix)
	for rep := 0; rep < 2*flatdCapReps; rep++ {
		reads := make([]request, flatdCapReqs)
		for i := range reads {
			reads[i] = stamp(route())
		}
		p.capReads = append(p.capReads, reads)
		// Twenty seconds of events outlast any repetition; the loop sends
		// the ones that fall due.
		p.capWrites = append(p.capWrites, events(flatdEventRate*20, 20*time.Second))
	}
	vecs := quoteVectors(st.pods)
	for _, vi := range rng.Perm(len(vecs))[:flatdQuotes] {
		r := stamp(quoteRequest(vecs[vi]))
		p.keys[r.id] = quoteKey(vecs[vi])
		p.quotes = append(p.quotes, r)
	}
	return p
}

// flatdChecker verifies each response as it completes.
type flatdChecker struct {
	c    *child
	st   *flatdState
	keys map[int64]string
}

func (fc *flatdChecker) check(o *outcome) {
	if msg := o.check(); msg != "" {
		fc.c.fail("%s", msg)
		return
	}
	switch o.req.op {
	case "routes":
		if msg := fc.checkRoutes(o); msg != "" {
			fc.c.fail("routes #%d %s: %s", o.req.id, o.req.target, msg)
			return
		}
	case "topology":
		var body struct {
			Fingerprint string `json:"fingerprint"`
		}
		if err := json.Unmarshal(o.body, &body); err != nil || body.Fingerprint != fc.st.fp {
			fc.c.fail("topology #%d: fingerprint %q, want %q (%v)", o.req.id, body.Fingerprint, fc.st.fp, err)
			return
		}
	case "metrics":
		if !strings.Contains(string(o.body), "flatd_requests_total") {
			fc.c.fail("metrics #%d: no flatd_requests_total in the exposition", o.req.id)
			return
		}
	default:
		key := fc.keys[o.req.id]
		if !fc.c.digestOK(key, bytesDigest(o.body)) {
			fc.c.fail("%s #%d: body digest differs from its pin", key, o.req.id)
			return
		}
	}
	fc.c.ok()
}

// checkRoutes enforces the /routes invariants: at most k paths, each a
// walk from src to dst.
func (fc *flatdChecker) checkRoutes(o *outcome) string {
	var body struct {
		Src, Dst, K int
		Reachable   bool
		Paths       []struct {
			Nodes []int `json:"nodes"`
			Links []int `json:"links"`
		}
	}
	if err := json.Unmarshal(o.body, &body); err != nil {
		return err.Error()
	}
	q := strings.TrimPrefix(o.req.target, "/routes?")
	want := fmt.Sprintf("src=%d&dst=%d", body.Src, body.Dst)
	switch {
	case q != want:
		return fmt.Sprintf("answered %s", want)
	case len(body.Paths) > flatdK:
		return fmt.Sprintf("%d paths, more than k=%d", len(body.Paths), flatdK)
	case body.Reachable != (len(body.Paths) > 0):
		return "reachable disagrees with the path list"
	}
	for i, p := range body.Paths {
		if len(p.Nodes) < 2 || p.Nodes[0] != body.Src || p.Nodes[len(p.Nodes)-1] != body.Dst || len(p.Links) != len(p.Nodes)-1 {
			return fmt.Sprintf("path %d is not a walk from %d to %d", i, body.Src, body.Dst)
		}
	}
	return ""
}

// clientSpan records a finished request as a client span under parent.
func clientSpan(tr *tracer, o *outcome, parent int) {
	tr.add(spanRec{Name: "loadgen." + o.req.op, Start: int64(o.due.Sub(tr.t0)), End: int64(o.done.Sub(tr.t0)), Parent: parent, Req: o.req.id, Status: o.status})
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func runFlatd(c *child) error {
	st, err := flatdServer(c)
	if err != nil {
		return err
	}
	if err := st.serve(c.tr); err != nil {
		return err
	}
	defer st.stop()
	if !c.ready() {
		return nil
	}
	// The mix phase takes half the budget; capacity and quotes follow.
	p := st.plan(c.seed, max(c.budget/2, time.Second))
	fr := &flatdRun{c: c, p: p, client: map[string]float64{}, phase: -1}
	fc := &flatdChecker{c: c, st: st, keys: p.keys}
	fr.lg = &loadgen{base: st.base, conns: workers(), timeout: flatdTimeout, onDone: func(o *outcome) {
		clientSpan(c.tr, o, fr.phase)
		fc.check(o)
	}}
	// Every phase records into pass 1, the number loop gives its first
	// traced pass, so layerMetrics reads the phases' spans as traced.
	c.tr.pass.Store(1)
	if !c.capacityOnly {
		fr.mix()
	}
	fr.capacity()
	if !c.capacityOnly {
		fr.quote()
		c.rep.Client = fr.client
	}
	if c.traceRun {
		// The per-layer view of the client figures comes from this traced
		// run; the untraced run prints them beside its end-to-end metrics.
		for k, v := range fr.client {
			c.count(k, v)
		}
	}
	return nil
}

// flatdRun is one process's pass through the phases.
type flatdRun struct {
	c      *child
	p      *flatdPlan
	lg     *loadgen
	client map[string]float64
	// phase is the current phase's span, the parent of client spans. It
	// changes only between phases, while no connection is running.
	phase int
}

func (fr *flatdRun) begin(name string, traced bool) {
	fr.c.tr.on.Store(traced)
	fr.phase = fr.c.tr.begin(name, -1)
}

func (fr *flatdRun) end() {
	fr.c.tr.end(fr.phase)
	fr.c.tr.on.Store(false)
}

// mix runs the open loop and records its latency percentiles, each with
// its sample count, and the generator's lateness.
func (fr *flatdRun) mix() {
	fr.begin("phase.mix", fr.c.traceRun)
	outs := fr.lg.open(time.Now(), fr.p.mixReads, fr.p.mixWrites)
	fr.end()
	lat := map[string][]float64{}
	var late []float64
	wait, dispatch := 0.0, time.Duration(0)
	for i := range outs {
		o := &outs[i]
		lat[o.req.op] = append(lat[o.req.op], ms(o.latency()))
		late = append(late, ms(o.late()))
		wait += o.connWait().Seconds()
		if i < len(fr.p.mixReads) {
			// A write also waits for the write before it; that wait is the
			// daemon's, so only reads measure the generator itself.
			dispatch = max(dispatch, o.dispatchLate())
		}
	}
	for _, q := range []struct {
		op  string
		ps  []float64
		tag []string
	}{
		{"routes", []float64{0.5, 0.99}, []string{"p50", "p99"}},
		{"fail", []float64{0.5, 0.9}, []string{"p50", "p90"}},
		{"repair", []float64{0.5, 0.9}, []string{"p50", "p90"}},
	} {
		xs := lat[q.op]
		fr.client["loadgen."+q.op+"_samples"] = float64(len(xs))
		for i, pv := range q.ps {
			fr.client["loadgen."+q.op+"_"+q.tag[i]+"_ms"] = pct(xs, pv)
			if b := beyond(len(xs), pv); b < 10 {
				fmt.Fprintf(os.Stderr, "perfbench: %s %s has %d samples beyond it, fewer than 10\n", q.op, q.tag[i], b)
			}
		}
	}
	fr.client["loadgen.late_ms_p99"] = pct(late, 0.99)
	fr.client["loadgen.late_ms_max"] = maxOf(late)
	fr.client["loadgen.conn_wait_s"] = wait
	fr.client["loadgen.dispatch_late_ms_max"] = ms(dispatch)
}

// capacity runs the closed-loop repetitions. A traced run runs twice as
// many, traced and untraced alternating, which measures the trace
// overhead.
func (fr *flatdRun) capacity() {
	c := fr.c
	reps := flatdCapReps
	if c.traceRun {
		reps *= 2
	}
	for rep := 0; rep < reps; rep++ {
		traced := c.passTraced(rep)
		var ms0, ms1 runtime.MemStats
		if c.traceRun && !traced {
			runtime.ReadMemStats(&ms0)
		}
		fr.begin("phase.capacity", traced)
		t0 := time.Now()
		fr.lg.closed(t0, fr.p.capReads[rep], fr.p.capWrites[rep])
		d := time.Since(t0).Seconds()
		fr.end()
		if traced {
			c.rep.Traced = append(c.rep.Traced, d)
			continue
		}
		c.rep.Passes = append(c.rep.Passes, d)
		if c.traceRun {
			runtime.ReadMemStats(&ms1)
			c.rtime = append(c.rtime, runtimeDelta(&ms0, &ms1))
		}
	}
	fr.client["loadgen.routes_max_rps"] = float64(flatdCapReqs) / median(c.rep.Passes)
}

// quote prices the sampled conversions from one client.
func (fr *flatdRun) quote() {
	fr.begin("phase.quote", fr.c.traceRun)
	qlg := *fr.lg
	qlg.conns = 1
	outs := qlg.closed(time.Now(), fr.p.quotes, nil)
	fr.end()
	var lat []float64
	for i := range outs {
		lat = append(lat, ms(outs[i].latency()))
	}
	fr.client["loadgen.quote_p50_ms"] = median(lat)
	fr.client["loadgen.quote_samples"] = float64(len(lat))
}

// pinFlatd computes the digest of every link-event and quote body the
// workload can produce: a fail then a repair of each switch adjacency
// from the healthy state, and each of the 80 quote vectors.
func pinFlatd(c *child) error {
	st, err := flatdServer(c)
	if err != nil {
		return err
	}
	h := st.srv.Handler()
	do := func(r request) ([]byte, error) {
		rec := httptest.NewRecorder()
		hr := httptest.NewRequest(r.method, r.target, strings.NewReader(string(r.body)))
		h.ServeHTTP(rec, hr)
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("%s %s: status %d: %s", r.method, r.target, rec.Code, rec.Body.String())
		}
		return rec.Body.Bytes(), nil
	}
	for _, adj := range st.adjs {
		for _, action := range []string{"fail", "repair"} {
			b, err := do(eventRequest(action, adj))
			if err != nil {
				return err
			}
			c.digestOK(eventKey(action, adj), bytesDigest(b))
		}
	}
	for _, vec := range quoteVectors(st.pods) {
		b, err := do(quoteRequest(vec))
		if err != nil {
			return err
		}
		c.digestOK(quoteKey(vec), bytesDigest(b))
	}
	return nil
}
