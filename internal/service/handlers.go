package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"time"

	"flattree/internal/churn"
	"flattree/internal/control"
	"flattree/internal/core"
	"flattree/internal/graph"
	"flattree/internal/routing"
	"flattree/internal/topo"
)

// switchDelta is one switch's entry in a JSON-rendered rule delta,
// sorted by switch ID so response bodies are deterministic.
type switchDelta struct {
	Switch int `json:"switch"`
	Dels   int `json:"dels,omitempty"`
	Adds   int `json:"adds,omitempty"`
}

// sortedDelta renders a routing.RuleDelta as a deterministic slice.
func sortedDelta(d routing.RuleDelta) []switchDelta {
	order := make([]int, 0, len(d.Adds)+len(d.Dels))
	for sw := range d.Adds {
		order = append(order, sw)
	}
	for sw := range d.Dels {
		order = append(order, sw)
	}
	sort.Ints(order)
	out := make([]switchDelta, 0, len(order))
	for i, sw := range order {
		if i > 0 && sw == order[i-1] {
			continue // switch present in both maps
		}
		out = append(out, switchDelta{Switch: sw, Dels: d.Dels[sw], Adds: d.Adds[sw]})
	}
	return out
}

// failedLink is one masked link in /topology and /events/link responses:
// sorted by ID, each link's endpoints low-first.
type failedLink struct {
	Link int `json:"link"`
	A    int `json:"a"`
	B    int `json:"b"`
}

// modeStrings renders a mode vector for JSON.
func modeStrings(modes []core.Mode) []string {
	out := make([]string, len(modes))
	for i, m := range modes {
		out[i] = m.String()
	}
	return out
}

// writeJSON writes v as an indented JSON body with the given status.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, `{"error":"encoding response failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}

// httpError writes a JSON error body.
func httpError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// requireMethod enforces the endpoint's method, answering 405 otherwise.
func requireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		httpError(w, http.StatusMethodNotAllowed, "method %s not allowed; use %s", r.Method, method)
		return false
	}
	return true
}

// GET /healthz — liveness plus the state's mutation epoch.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Status        string  `json:"status"`
		UptimeSeconds float64 `json:"uptime_seconds"`
		LinkEvents    int64   `json:"link_events_applied"`
	}{Status: "ok", UptimeSeconds: time.Since(s.start).Seconds(), LinkEvents: s.cur.Load().events})
}

// topologyResponse is the GET /topology body.
type topologyResponse struct {
	Name          string       `json:"name"`
	Fingerprint   string       `json:"fingerprint"`
	K             int          `json:"k"`
	PodModes      []string     `json:"pod_modes"`
	Servers       int          `json:"servers"`
	Switches      int          `json:"switches"`
	Links         int          `json:"links"`
	FailedLinks   []failedLink `json:"failed_links"`
	DegradedPairs int          `json:"degraded_pairs"`
}

// GET /topology — the live state's identity and health.
func (s *Server) handleTopology(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	e := s.cur.Load()
	writeJSON(w, http.StatusOK, topologyResponse{
		Name:          s.topo.Name,
		Fingerprint:   s.fp,
		K:             s.cfg.K,
		PodModes:      modeStrings(s.nw.PodModes()),
		Servers:       len(s.topo.Servers()),
		Switches:      len(s.topo.Nodes) - len(s.topo.Servers()),
		Links:         s.topo.G.NumLinks(),
		FailedLinks:   e.failed,
		DegradedPairs: e.degraded,
	})
}

// GET /routes?src=&dst= — live k-shortest server-to-server lookup. The
// body is compact JSON, appended field by field: this is the daemon's
// hot path, and its fields are fixed.
func (s *Server) handleRoutes(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	q := r.URL.Query()
	src, err := s.serverParam(q, "src")
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	dst, err := s.serverParam(q, "dst")
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	paths := s.cur.Load().table.ServerPaths(src, dst)
	if len(paths) > s.cfg.K {
		paths = paths[:s.cfg.K]
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(routesBody(src, dst, s.cfg.K, paths))
}

// routesBody encodes the /routes answer: the fields src, dst, k,
// reachable and paths, in that order, without whitespace, then a
// newline.
func routesBody(src, dst, k int, paths []graph.Path) []byte {
	size := 64
	for _, p := range paths {
		size += 24 + 8*(len(p.Nodes)+len(p.Links))
	}
	buf := make([]byte, 0, size)
	buf = append(buf, `{"src":`...)
	buf = strconv.AppendInt(buf, int64(src), 10)
	buf = append(buf, `,"dst":`...)
	buf = strconv.AppendInt(buf, int64(dst), 10)
	buf = append(buf, `,"k":`...)
	buf = strconv.AppendInt(buf, int64(k), 10)
	buf = append(buf, `,"reachable":`...)
	buf = strconv.AppendBool(buf, len(paths) > 0)
	buf = append(buf, `,"paths":[`...)
	for i, p := range paths {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"nodes":`...)
		buf = appendInts(buf, p.Nodes)
		buf = append(buf, `,"links":`...)
		buf = appendInts(buf, p.Links)
		buf = append(buf, '}')
	}
	return append(buf, "]}\n"...)
}

// appendInts appends xs as a JSON array.
func appendInts(buf []byte, xs []int) []byte {
	buf = append(buf, '[')
	for i, x := range xs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(x), 10)
	}
	return append(buf, ']')
}

// serverParam parses query parameter name as a server node ID.
func (s *Server) serverParam(q url.Values, name string) (int, error) {
	raw := q.Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing query parameter %q", name)
	}
	id, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %v", name, err)
	}
	if id < 0 || id >= len(s.topo.Nodes) {
		return 0, fmt.Errorf("parameter %q: node %d out of range [0, %d)", name, id, len(s.topo.Nodes))
	}
	if s.topo.Nodes[id].Kind != topo.Server {
		return 0, fmt.Errorf("parameter %q: node %d is a %v, not a server", name, id, s.topo.Nodes[id].Kind)
	}
	return id, nil
}

// quoteRequest is the POST /quote/convert body: the full target per-pod
// mode vector.
type quoteRequest struct {
	Modes []string `json:"modes"`
}

// quoteResponse is the POST /quote/convert body: the Table 3 delay
// breakdown plus the per-switch rule churn (dels = pre-conversion rule
// counts, adds = post-conversion, per control.Quote).
type quoteResponse struct {
	From                   []string      `json:"from"`
	To                     []string      `json:"to"`
	ConvertersReconfigured int           `json:"converters_reconfigured"`
	RulesDeleted           int           `json:"rules_deleted"`
	RulesAdded             int           `json:"rules_added"`
	OCSSeconds             float64       `json:"ocs_seconds"`
	DeleteSeconds          float64       `json:"delete_seconds"`
	AddSeconds             float64       `json:"add_seconds"`
	TotalSeconds           float64       `json:"total_seconds"`
	RampSeconds            float64       `json:"ramp_seconds"`
	RuleDelta              []switchDelta `json:"rule_delta"`
}

// POST /quote/convert — price a what-if pod-mode conversion on a clone
// of the live network; live routing state is untouched.
func (s *Server) handleQuoteConvert(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	var req quoteRequest
	if err := decodeBody(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	modes := make([]core.Mode, len(req.Modes))
	for i, raw := range req.Modes {
		m, err := core.ParseMode(raw)
		if err != nil {
			httpError(w, http.StatusBadRequest, "modes[%d]: %v", i, err)
			return
		}
		modes[i] = m
	}
	q, err := control.QuotePodModes(s.nw.Clone(), s.cfg.Delay, s.kByMode(), modes)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "quote: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, quoteResponse{
		From:                   modeStrings(q.Report.From),
		To:                     modeStrings(q.Report.To),
		ConvertersReconfigured: q.Report.ConvertersReconfigured,
		RulesDeleted:           q.Report.RulesDeleted,
		RulesAdded:             q.Report.RulesAdded,
		OCSSeconds:             q.Report.OCSTime,
		DeleteSeconds:          q.Report.DeleteTime,
		AddSeconds:             q.Report.AddTime,
		TotalSeconds:           q.Report.Total,
		RampSeconds:            q.Report.RampTime,
		RuleDelta:              sortedDelta(q.Delta),
	})
}

// kByMode builds the controller k-table the daemon quotes with: the
// configured k for every mode, matching the live table's depth.
func (s *Server) kByMode() map[core.Mode]int {
	return map[core.Mode]int{
		core.ModeClos:   s.cfg.K,
		core.ModeLocal:  s.cfg.K,
		core.ModeGlobal: s.cfg.K,
	}
}

// linkEventRequest is the POST /events/link body.
type linkEventRequest struct {
	// Action is "fail" or "repair".
	Action string `json:"action"`
	// A and B are the switch endpoints of the affected adjacency; the
	// route table's masking rule, which the churn engine shares, picks
	// the parallel link (routing.IncrementalTable.Apply).
	A int `json:"a"`
	B int `json:"b"`
}

// linkEventResponse is the POST /events/link body: the applied event,
// the exact rule delta the incremental table installed, and its priced
// control-plane reaction.
type linkEventResponse struct {
	Action          string        `json:"action"`
	A               int           `json:"a"`
	B               int           `json:"b"`
	Link            int           `json:"link"`
	RulesDeleted    int           `json:"rules_deleted"`
	RulesAdded      int           `json:"rules_added"`
	ReactionSeconds float64       `json:"reaction_seconds"`
	RuleDelta       []switchDelta `json:"rule_delta"`
	FailedLinks     []failedLink  `json:"failed_links"`
	DegradedPairs   int           `json:"degraded_pairs"`
}

// POST /events/link — fail or repair a link through the live incremental
// table.
func (s *Server) handleLinkEvent(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	var req linkEventRequest
	if err := decodeBody(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Action != "fail" && req.Action != "repair" {
		httpError(w, http.StatusBadRequest, "action %q must be \"fail\" or \"repair\"", req.Action)
		return
	}
	resp, err := s.applyLinkEvent(req)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// applyLinkEvent applies the event to the route table, publishes the
// next epoch, and answers from the event's rule delta and that epoch.
// Link events run one at a time; readers never wait for them.
func (s *Server) applyLinkEvent(req linkEventRequest) (linkEventResponse, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	link, delta, err := s.inc.Apply(req.A, req.B, req.Action == "repair")
	if err != nil {
		return linkEventResponse{}, err
	}
	e := s.nextEpoch(s.cur.Load().events + 1)
	s.cur.Store(e)
	s.reg.Counter("flatd_link_events_total", "action", req.Action).Inc()
	return linkEventResponse{
		Action:          req.Action,
		A:               req.A,
		B:               req.B,
		Link:            link,
		RulesDeleted:    delta.TotalDels(),
		RulesAdded:      delta.TotalAdds(),
		ReactionSeconds: churn.ReactionTime(s.cfg.Detection, delta, s.cfg.Delay),
		RuleDelta:       sortedDelta(delta),
		FailedLinks:     e.failed,
		DegradedPairs:   e.degraded,
	}, nil
}

// GET /metrics — Prometheus text exposition of the daemon's registry.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	if s.reg == nil {
		httpError(w, http.StatusServiceUnavailable, "telemetry registry disabled")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := s.reg.WritePrometheus(w); err != nil {
		// Headers are gone; all we can do is note it in the registry.
		s.reg.Counter("flatd_metrics_write_errors_total").Inc()
	}
}

// decodeBody parses a JSON request body strictly: unknown fields and
// trailing garbage are errors, so malformed requests fail loudly.
func decodeBody(r *http.Request, v interface{}) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("request body: %v", err)
	}
	if dec.More() {
		return fmt.Errorf("request body: trailing data after JSON object")
	}
	return nil
}
