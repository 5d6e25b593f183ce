package service

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flattree/internal/churn"
	"flattree/internal/control"
	"flattree/internal/core"
	"flattree/internal/telemetry"
	"flattree/internal/topo"
)

var update = flag.Bool("update", false, "rewrite golden files with current responses")

// testParams is a 2-pod flat-tree small enough for fast table builds but
// with parallel links and converters, so link events and quotes are
// non-trivial.
var testParams = topo.ClosParams{
	Name: "svc-mini", Pods: 2, EdgesPerPod: 2, AggsPerPod: 2,
	ServersPerEdge: 2, EdgeUplinks: 2, AggUplinks: 2, Cores: 4,
}

func testNetwork(t testing.TB) *core.Network {
	t.Helper()
	nw, err := core.New(testParams, core.Options{N: 1, M: 1, Pattern: core.Pattern1})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// testDelay is the pricing model every test server uses; the differential
// tests construct their offline baselines with the same model.
func testDelay() control.DelayModel {
	d := control.TestbedDelayModel()
	d.Parallel = true
	return d
}

func newTestServer(t testing.TB) *Server {
	t.Helper()
	srv, err := New(Config{
		Network:   testNetwork(t),
		K:         4,
		Detection: 0.05,
		Delay:     testDelay(),
		Registry:  telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// do issues one request against the server's full handler chain and
// returns status and body.
func do(t *testing.T, srv *Server, method, target, body string) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, target, rd)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// checkGolden compares a response body against testdata/<name>; -update
// rewrites the file.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("response drifted from golden file %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// switchLink finds one switch-to-switch adjacency in the realized
// topology — a failable link bundle for event tests.
func switchLink(t testing.TB, tp *topo.Topology) (int, int) {
	t.Helper()
	for _, l := range tp.G.Links() {
		if tp.Nodes[l.A].Kind != topo.Server && tp.Nodes[l.B].Kind != topo.Server {
			return l.A, l.B
		}
	}
	t.Fatal("no switch-to-switch link in test topology")
	return 0, 0
}

// TestNewRejectsBadConfig pins New's exact error for each config it
// refuses. A NaN detection or delay used to reach the link-event pricing:
// the event was applied, then its response failed to encode; a negative
// one priced a reaction below zero. A negative request or drain timeout
// used to become its default silently. Zero keeps its documented
// meaning: the default.
func TestNewRejectsBadConfig(t *testing.T) {
	type testcase struct {
		name           string
		cfg            Config
		noNetwork      bool
		expectExactErr string
		expectFn       func(t *testing.T, srv *Server)
	}
	delay := func(edit func(d *control.DelayModel)) control.DelayModel {
		d := testDelay()
		edit(&d)
		return d
	}
	cases := []testcase{
		{name: "nil network", noNetwork: true,
			expectExactErr: "service: Config.Network is required"},
		{name: "negative k", cfg: Config{K: -1},
			expectExactErr: "service: k = -1"},
		{name: "nan detection", cfg: Config{Detection: math.NaN()},
			expectExactErr: "service: Config.Detection NaN (want finite >= 0; zero uses the default)"},
		{name: "infinite detection", cfg: Config{Detection: math.Inf(1)},
			expectExactErr: "service: Config.Detection +Inf (want finite >= 0; zero uses the default)"},
		{name: "negative detection", cfg: Config{Detection: -1},
			expectExactErr: "service: Config.Detection -1 (want finite >= 0; zero uses the default)"},
		{name: "nan ocs reconfig", cfg: Config{Delay: delay(func(d *control.DelayModel) { d.OCSReconfig = math.NaN() })},
			expectExactErr: "service: Config.Delay.OCSReconfig NaN (want finite >= 0)"},
		{name: "negative rule delete", cfg: Config{Delay: delay(func(d *control.DelayModel) { d.PerRuleDelete = -0.001 })},
			expectExactErr: "service: Config.Delay.PerRuleDelete -0.001 (want finite >= 0)"},
		{name: "nan rule add", cfg: Config{Delay: delay(func(d *control.DelayModel) { d.PerRuleAdd = math.NaN() })},
			expectExactErr: "service: Config.Delay.PerRuleAdd NaN (want finite >= 0)"},
		{name: "infinite ramp", cfg: Config{Delay: delay(func(d *control.DelayModel) { d.Ramp = math.Inf(-1) })},
			expectExactErr: "service: Config.Delay.Ramp -Inf (want finite >= 0)"},
		{name: "negative request timeout", cfg: Config{RequestTimeout: -time.Second},
			expectExactErr: "service: Config.RequestTimeout -1s (want >= 0; zero uses the default)"},
		{name: "negative drain timeout", cfg: Config{DrainTimeout: -1500 * time.Millisecond},
			expectExactErr: "service: Config.DrainTimeout -1.5s (want >= 0; zero uses the default)"},
		{name: "zero keeps its meaning", cfg: Config{Detection: 0, Delay: control.DelayModel{}},
			expectFn: func(t *testing.T, srv *Server) {
				if srv.cfg.Detection != 0.05 || srv.cfg.Delay != testDelay() {
					t.Fatalf("zero config defaulted to detection %v, delay %+v", srv.cfg.Detection, srv.cfg.Delay)
				}
				if srv.cfg.RequestTimeout != 10*time.Second || srv.cfg.DrainTimeout != 15*time.Second {
					t.Fatalf("zero config defaulted to request timeout %v, drain timeout %v", srv.cfg.RequestTimeout, srv.cfg.DrainTimeout)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.noNetwork {
				tc.cfg.Network = testNetwork(t)
			}
			tc.cfg.Registry = telemetry.NewRegistry()
			srv, err := New(tc.cfg)
			if tc.expectExactErr != "" {
				if err == nil || err.Error() != tc.expectExactErr {
					t.Fatalf("error = %v, want %q", err, tc.expectExactErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			tc.expectFn(t, srv)
		})
	}
}

func TestHealthz(t *testing.T) {
	srv := newTestServer(t)
	code, body := do(t, srv, http.MethodGet, "/healthz", "")
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %s", code, body)
	}
	var resp struct {
		Status     string `json:"status"`
		LinkEvents int64  `json:"link_events_applied"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != "ok" || resp.LinkEvents != 0 {
		t.Fatalf("healthz = %+v", resp)
	}
}

func TestTopologyGolden(t *testing.T) {
	srv := newTestServer(t)
	code, body := do(t, srv, http.MethodGet, "/topology", "")
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %s", code, body)
	}
	checkGolden(t, "topology.golden.json", body)
}

func TestQuoteConvertGolden(t *testing.T) {
	srv := newTestServer(t)
	code, body := do(t, srv, http.MethodPost, "/quote/convert", `{"modes":["local","clos"]}`)
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %s", code, body)
	}
	checkGolden(t, "quote_convert.golden.json", body)
}

// TestQuoteConvertDifferential pins the online quote byte-identical to
// the offline control.QuotePodModes path for the same conversion: the
// daemon must be a transport in front of the library, never a second
// implementation.
func TestQuoteConvertDifferential(t *testing.T) {
	srv := newTestServer(t)
	code, body := do(t, srv, http.MethodPost, "/quote/convert", `{"modes":["global","local"]}`)
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %s", code, body)
	}

	q, err := control.QuotePodModes(testNetwork(t), testDelay(), srv.kByMode(),
		[]core.Mode{core.ModeGlobal, core.ModeLocal})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(quoteResponse{
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
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if !bytes.Equal(body, want) {
		t.Fatalf("online quote differs from offline QuotePodModes:\n--- online ---\n%s\n--- offline ---\n%s", body, want)
	}
}

// TestQuoteConvertLeavesLiveStateUntouched verifies the what-if quote is
// computed on a copy: the live topology response is identical before and
// after quoting a conversion.
func TestQuoteConvertLeavesLiveStateUntouched(t *testing.T) {
	srv := newTestServer(t)
	_, before := do(t, srv, http.MethodGet, "/topology", "")
	if code, body := do(t, srv, http.MethodPost, "/quote/convert", `{"modes":["local","global"]}`); code != http.StatusOK {
		t.Fatalf("quote status = %d, body %s", code, body)
	}
	_, after := do(t, srv, http.MethodGet, "/topology", "")
	if !bytes.Equal(before, after) {
		t.Fatalf("quote mutated live state:\n--- before ---\n%s\n--- after ---\n%s", before, after)
	}
}

// TestQuotePerformsNoConversion pins that a quote is priced, not
// performed. The server runs over the global registry, where the
// controller's conversion spans and counters land, yet its quotes leave
// no control_conversions_total in /metrics and no child under any
// quote's request span.
func TestQuotePerformsNoConversion(t *testing.T) {
	reg := telemetry.Enable()
	t.Cleanup(telemetry.Disable)
	srv, err := New(Config{Network: testNetwork(t), K: 4, Detection: 0.05, Delay: testDelay()})
	if err != nil {
		t.Fatal(err)
	}
	quotes := []string{`{"modes":["local","clos"]}`, `{"modes":["global","global"]}`, `{"modes":["global","local"]}`}
	for _, body := range quotes {
		if code, resp := do(t, srv, http.MethodPost, "/quote/convert", body); code != http.StatusOK {
			t.Fatalf("quote %s: status %d, body %s", body, code, resp)
		}
	}
	if _, body := do(t, srv, http.MethodGet, "/metrics", ""); strings.Contains(string(body), "control_conversions_total") {
		t.Fatalf("quotes were counted as conversions:\n%s", body)
	}
	n := 0
	for _, sp := range reg.Snapshot().Spans {
		if sp.Attrs["path"] != "/quote/convert" {
			continue
		}
		n++
		if len(sp.Children) != 0 {
			t.Fatalf("quote request span has children %+v", sp.Children)
		}
	}
	if n != len(quotes) {
		t.Fatalf("%d quote request spans, want %d", n, len(quotes))
	}
}

// linkEventResult mirrors linkEventResponse for decoding.
type linkEventResult struct {
	Link            int           `json:"link"`
	RulesDeleted    int           `json:"rules_deleted"`
	RulesAdded      int           `json:"rules_added"`
	ReactionSeconds float64       `json:"reaction_seconds"`
	RuleDelta       []switchDelta `json:"rule_delta"`
}

// TestLinkEventDifferential pins /events/link byte-identical to the
// offline churn pipeline: the same fail+repair trace compiled by
// churn.Engine must yield the same per-switch deltas and priced
// reactions the daemon returns.
func TestLinkEventDifferential(t *testing.T) {
	srv := newTestServer(t)
	a, b := switchLink(t, srv.topo)

	eng := &churn.Engine{Topo: testNetwork(t).Realize().Topo, K: 4, Detection: 0.05, Delay: testDelay()}
	trace := churn.Trace{
		{Time: 0, A: a, B: b},
		{Time: 1, A: a, B: b, Repair: true},
	}
	plan, err := eng.Compile(trace, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Deltas) != 2 || len(plan.Reactions) != 2 {
		t.Fatalf("plan has %d deltas, %d reactions, want 2 each", len(plan.Deltas), len(plan.Reactions))
	}

	for i, action := range []string{"fail", "repair"} {
		reqBody := fmt.Sprintf(`{"action":%q,"a":%d,"b":%d}`, action, a, b)
		code, body := do(t, srv, http.MethodPost, "/events/link", reqBody)
		if code != http.StatusOK {
			t.Fatalf("%s status = %d, body %s", action, code, body)
		}
		var got linkEventResult
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if got.ReactionSeconds != plan.Reactions[i] {
			t.Errorf("%s reaction = %v, offline engine priced %v", action, got.ReactionSeconds, plan.Reactions[i])
		}
		if got.RulesDeleted != plan.Deltas[i].TotalDels() || got.RulesAdded != plan.Deltas[i].TotalAdds() {
			t.Errorf("%s rule totals = (%d dels, %d adds), offline (%d, %d)", action,
				got.RulesDeleted, got.RulesAdded, plan.Deltas[i].TotalDels(), plan.Deltas[i].TotalAdds())
		}
		gotDelta, err := json.Marshal(got.RuleDelta)
		if err != nil {
			t.Fatal(err)
		}
		wantDelta, err := json.Marshal(sortedDelta(plan.Deltas[i]))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotDelta, wantDelta) {
			t.Errorf("%s rule delta differs from offline engine:\n--- online ---\n%s\n--- offline ---\n%s",
				action, gotDelta, wantDelta)
		}
	}
}

// TestLinkEventErrors pins each rejected link event's status and exact
// error body. The 422 bodies are the route table's LinkBetween errors.
func TestLinkEventErrors(t *testing.T) {
	srv := newTestServer(t)
	a, b := switchLink(t, srv.topo)
	servers := srv.topo.Servers()
	n := len(srv.topo.Nodes)
	cases := []struct {
		name, body     string
		status         int
		expectExactErr string
	}{
		{"bad action", fmt.Sprintf(`{"action":"toggle","a":%d,"b":%d}`, a, b), http.StatusBadRequest,
			`action "toggle" must be "fail" or "repair"`},
		{"unknown field", `{"action":"fail","a":0,"b":1,"x":2}`, http.StatusBadRequest,
			`request body: json: unknown field "x"`},
		{"not json", `fail a b`, http.StatusBadRequest,
			`request body: invalid character 'i' in literal false (expecting 'l')`},
		{"repair healthy", fmt.Sprintf(`{"action":"repair","a":%d,"b":%d}`, a, b), http.StatusUnprocessableEntity,
			fmt.Sprintf("routing: no masked link between %d and %d", a, b)},
		{"server endpoint", fmt.Sprintf(`{"action":"fail","a":%d,"b":%d}`, servers[0], a), http.StatusUnprocessableEntity,
			fmt.Sprintf("routing: node %d is a server; server uplinks do not fail", servers[0])},
		{"no adjacency", fmt.Sprintf(`{"action":"fail","a":%d,"b":%d}`, a, a), http.StatusUnprocessableEntity,
			fmt.Sprintf("routing: no link between %d and %d", a, a)},
		{"out of range", fmt.Sprintf(`{"action":"fail","a":%d,"b":%d}`, a, n), http.StatusUnprocessableEntity,
			fmt.Sprintf("routing: node %d out of range [0, %d)", n, n)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := do(t, srv, http.MethodPost, "/events/link", tc.body)
			if code != tc.status {
				t.Fatalf("status = %d, want %d; body %s", code, tc.status, body)
			}
			var got struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatalf("body %s: %v", body, err)
			}
			if got.Error != tc.expectExactErr {
				t.Fatalf("error = %q, want %q", got.Error, tc.expectExactErr)
			}
		})
	}
}

func TestRoutes(t *testing.T) {
	srv := newTestServer(t)
	servers := srv.topo.Servers()
	src, dst := servers[0], servers[len(servers)-1]
	code, body := do(t, srv, http.MethodGet, fmt.Sprintf("/routes?src=%d&dst=%d", src, dst), "")
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %s", code, body)
	}
	var resp struct {
		Reachable bool `json:"reachable"`
		Paths     []struct {
			Nodes []int `json:"nodes"`
			Links []int `json:"links"`
		} `json:"paths"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Reachable || len(resp.Paths) == 0 {
		t.Fatalf("no paths between servers %d and %d: %s", src, dst, body)
	}
	if len(resp.Paths) > 4 {
		t.Fatalf("%d paths exceed k=4", len(resp.Paths))
	}
	for _, p := range resp.Paths {
		if p.Nodes[0] != src || p.Nodes[len(p.Nodes)-1] != dst || len(p.Nodes) != len(p.Links)+1 {
			t.Fatalf("malformed path %+v", p)
		}
	}
}

// errorBody decodes a JSON error response.
func errorBody(t *testing.T, body []byte) string {
	t.Helper()
	var got struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("body %s: %v", body, err)
	}
	return got.Error
}

// TestRoutesErrors pins each rejected /routes request's status and exact
// error body.
func TestRoutesErrors(t *testing.T) {
	srv := newTestServer(t)
	src := srv.topo.Servers()[0]
	n := len(srv.topo.Nodes)
	cases := []struct {
		name, method, target string
		status               int
		expectExactErr       string
	}{
		{"missing src", http.MethodGet, "/routes", http.StatusBadRequest,
			`missing query parameter "src"`},
		{"missing dst", http.MethodGet, fmt.Sprintf("/routes?src=%d", src), http.StatusBadRequest,
			`missing query parameter "dst"`},
		{"unparsable dst", http.MethodGet, fmt.Sprintf("/routes?src=%d&dst=xyz", src), http.StatusBadRequest,
			`parameter "dst": strconv.Atoi: parsing "xyz": invalid syntax`},
		{"out of range dst", http.MethodGet, fmt.Sprintf("/routes?src=%d&dst=9999", src), http.StatusBadRequest,
			fmt.Sprintf(`parameter "dst": node 9999 out of range [0, %d)`, n)},
		{"negative src", http.MethodGet, fmt.Sprintf("/routes?src=-1&dst=%d", src), http.StatusBadRequest,
			fmt.Sprintf(`parameter "src": node -1 out of range [0, %d)`, n)},
		{"switch src", http.MethodGet, "/routes?src=0&dst=1", http.StatusBadRequest,
			`parameter "src": node 0 is a core, not a server`},
		{"wrong method", http.MethodPost, fmt.Sprintf("/routes?src=%d&dst=%d", src, src), http.StatusMethodNotAllowed,
			"method POST not allowed; use GET"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := do(t, srv, tc.method, tc.target, "")
			if code != tc.status {
				t.Fatalf("status = %d, want %d; body %s", code, tc.status, body)
			}
			if got := errorBody(t, body); got != tc.expectExactErr {
				t.Fatalf("error = %q, want %q", got, tc.expectExactErr)
			}
		})
	}
}

// indentedRoutes is the reference /routes encoding: MarshalIndent of the
// same five fields over the live paths.
func indentedRoutes(t *testing.T, srv *Server, src, dst int) []byte {
	t.Helper()
	type routePath struct {
		Nodes []int `json:"nodes"`
		Links []int `json:"links"`
	}
	paths := srv.cur.Load().table.ServerPaths(src, dst)
	if len(paths) > srv.cfg.K {
		paths = paths[:srv.cfg.K]
	}
	out := make([]routePath, len(paths))
	for i, p := range paths {
		out[i] = routePath{Nodes: p.Nodes, Links: p.Links}
	}
	body, err := json.MarshalIndent(struct {
		Src       int         `json:"src"`
		Dst       int         `json:"dst"`
		K         int         `json:"k"`
		Reachable bool        `json:"reachable"`
		Paths     []routePath `json:"paths"`
	}{Src: src, Dst: dst, K: srv.cfg.K, Reachable: len(out) > 0, Paths: out}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(body, '\n')
}

// TestRoutesCompactIsWhitespaceOnly pins the compact /routes body to the
// indented encoding with its whitespace removed, for every server pair,
// on the healthy fabric and again after a link fails.
func TestRoutesCompactIsWhitespaceOnly(t *testing.T) {
	srv := newTestServer(t)
	servers := srv.topo.Servers()
	check := func(state string) map[[2]int]string {
		bodies := map[[2]int]string{}
		for _, src := range servers {
			for _, dst := range servers {
				if src == dst {
					continue
				}
				code, body := do(t, srv, http.MethodGet, fmt.Sprintf("/routes?src=%d&dst=%d", src, dst), "")
				if code != http.StatusOK {
					t.Fatalf("%s: %d->%d status = %d, body %s", state, src, dst, code, body)
				}
				var want bytes.Buffer
				if err := json.Compact(&want, indentedRoutes(t, srv, src, dst)); err != nil {
					t.Fatal(err)
				}
				want.WriteByte('\n')
				if !bytes.Equal(body, want.Bytes()) {
					t.Fatalf("%s: %d->%d body differs from the compacted indented encoding:\n--- got ---\n%s--- want ---\n%s",
						state, src, dst, body, want.Bytes())
				}
				bodies[[2]int{src, dst}] = string(body)
			}
		}
		return bodies
	}
	healthy := check("healthy")
	if len(healthy) != 56 {
		t.Fatalf("checked %d server pairs, want 56", len(healthy))
	}
	a, b := switchLink(t, srv.topo)
	if code, body := do(t, srv, http.MethodPost, "/events/link", fmt.Sprintf(`{"action":"fail","a":%d,"b":%d}`, a, b)); code != http.StatusOK {
		t.Fatalf("fail status = %d, body %s", code, body)
	}
	changed := 0
	for pair, body := range check("after a failure") {
		if body != healthy[pair] {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("failing a link changed no /routes body; the degraded check covers nothing new")
	}
}

// TestQuoteConvertErrors pins each rejected quote's status and exact
// error body.
func TestQuoteConvertErrors(t *testing.T) {
	srv := newTestServer(t)
	cases := []struct {
		name, method, body string
		status             int
		expectExactErr     string
	}{
		{"bad json", http.MethodPost, `modes`, http.StatusBadRequest,
			"request body: invalid character 'm' looking for beginning of value"},
		{"unknown field", http.MethodPost, `{"modes":["local","clos"],"k":4}`, http.StatusBadRequest,
			`request body: json: unknown field "k"`},
		{"trailing data", http.MethodPost, `{"modes":["local","clos"]} {}`, http.StatusBadRequest,
			"request body: trailing data after JSON object"},
		{"unknown mode", http.MethodPost, `{"modes":["local","mesh"]}`, http.StatusBadRequest,
			`modes[1]: core: unknown mode "mesh"`},
		{"wrong vector length", http.MethodPost, `{"modes":["local"]}`, http.StatusUnprocessableEntity,
			"quote: control: 1 modes for 2 pods"},
		{"wrong method", http.MethodGet, "", http.StatusMethodNotAllowed,
			"method GET not allowed; use POST"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := do(t, srv, tc.method, "/quote/convert", tc.body)
			if code != tc.status {
				t.Fatalf("status = %d, want %d; body %s", code, tc.status, body)
			}
			if got := errorBody(t, body); got != tc.expectExactErr {
				t.Fatalf("error = %q, want %q", got, tc.expectExactErr)
			}
		})
	}
}

func TestMethodNotAllowed(t *testing.T) {
	srv := newTestServer(t)
	cases := []struct{ method, target string }{
		{http.MethodPost, "/topology"},
		{http.MethodGet, "/quote/convert"},
		{http.MethodGet, "/events/link"},
		{http.MethodDelete, "/healthz"},
	}
	for _, tc := range cases {
		if code, _ := do(t, srv, tc.method, tc.target, ""); code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s status = %d, want 405", tc.method, tc.target, code)
		}
	}
}

// TestRequestMetricsBounded sends many distinct unknown paths: each is
// counted under path="other", so the registry holds as many series as
// before them, and the latency histogram is labeled by endpoint.
func TestRequestMetricsBounded(t *testing.T) {
	srv := newTestServer(t)
	series := func() int {
		snap := srv.reg.Snapshot()
		return len(snap.Counters) + len(snap.Gauges) + len(snap.Histograms)
	}
	do(t, srv, http.MethodGet, "/probe-0", "")
	before := series()
	for i := 1; i <= 200; i++ {
		if code, _ := do(t, srv, http.MethodGet, fmt.Sprintf("/probe-%d", i), ""); code != http.StatusNotFound {
			t.Fatalf("GET /probe-%d status = %d, want 404", i, code)
		}
	}
	if after := series(); after != before {
		t.Fatalf("200 unknown paths grew the registry from %d to %d series", before, after)
	}
	servers := srv.topo.Servers()
	do(t, srv, http.MethodGet, fmt.Sprintf("/routes?src=%d&dst=%d", servers[0], servers[1]), "")
	_, body := do(t, srv, http.MethodGet, "/metrics", "")
	for _, line := range []string{
		`flatd_requests_total{path="other"} 201`,
		`flatd_request_errors_total{path="other"} 201`,
		`flatd_request_seconds_count{path="/routes"} 1`,
	} {
		if !strings.Contains(string(body), line+"\n") {
			t.Errorf("metrics body lacks %q:\n%s", line, body)
		}
	}
}

func TestMetrics(t *testing.T) {
	srv := newTestServer(t)
	do(t, srv, http.MethodGet, "/healthz", "")
	code, body := do(t, srv, http.MethodGet, "/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(string(body), "flatd_requests_total") {
		t.Fatalf("metrics body lacks request counter:\n%s", body)
	}
}

// TestConcurrentHammer drives every endpoint from many goroutines at
// once; run under -race it proves that readers never touch what link
// events mutate. Each /healthz reader sees the applied-event count
// never decrease, and afterwards the count and /topology's failed links
// agree with the link events the daemon accepted.
func TestConcurrentHammer(t *testing.T) {
	srv := newTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	a, b := switchLink(t, srv.topo)
	servers := srv.topo.Servers()
	client := ts.Client()

	post := func(path, body string) int {
		resp, err := client.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return 0
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	get := func(path string, v interface{}) int {
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Error(err)
			return 0
		}
		defer resp.Body.Close()
		if v == nil {
			io.Copy(io.Discard, resp.Body)
		} else if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Errorf("GET %s: %v", path, err)
		}
		return resp.StatusCode
	}
	type health struct {
		LinkEvents int64 `json:"link_events_applied"`
	}

	const workers, iters = 10, 12
	var wg sync.WaitGroup
	var fails, repairs atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var last int64
			for i := 0; i < iters; i++ {
				switch w % 5 {
				case 0:
					if code := get("/topology", nil); code != http.StatusOK {
						t.Errorf("topology status %d", code)
					}
				case 1:
					target := fmt.Sprintf("/routes?src=%d&dst=%d", servers[0], servers[len(servers)-1])
					if code := get(target, nil); code != http.StatusOK {
						t.Errorf("routes status %d", code)
					}
				case 2:
					if code := post("/quote/convert", `{"modes":["local","clos"]}`); code != http.StatusOK {
						t.Errorf("quote status %d", code)
					}
				case 3:
					// Concurrent fail/repair of one adjacency races with the
					// other worker on the same bundle: 422 (nothing left to
					// fail / nothing to repair) is a legitimate outcome.
					action := []string{"fail", "repair"}[i%2]
					body := fmt.Sprintf(`{"action":%q,"a":%d,"b":%d}`, action, a, b)
					switch code := post("/events/link", body); {
					case code == http.StatusOK && action == "fail":
						fails.Add(1)
					case code == http.StatusOK:
						repairs.Add(1)
					case code != http.StatusUnprocessableEntity:
						t.Errorf("link event status %d", code)
					}
				case 4:
					var h health
					if code := get("/healthz", &h); code != http.StatusOK {
						t.Errorf("healthz status %d", code)
					}
					if h.LinkEvents < last {
						t.Errorf("link_events_applied went from %d to %d", last, h.LinkEvents)
					}
					last = h.LinkEvents
				}
			}
		}(w)
	}
	wg.Wait()

	if code := get("/metrics", nil); code != http.StatusOK {
		t.Errorf("metrics status %d", code)
	}
	if fails.Load() == 0 {
		t.Fatal("no link event was accepted; the epoch checks cover nothing")
	}
	var h health
	get("/healthz", &h)
	if want := fails.Load() + repairs.Load(); h.LinkEvents != want {
		t.Errorf("link_events_applied = %d, want %d accepted link events", h.LinkEvents, want)
	}
	var tp topologyResponse
	get("/topology", &tp)
	if want := fails.Load() - repairs.Load(); int64(len(tp.FailedLinks)) != want {
		t.Errorf("failed_links = %+v, want %d (%d fails - %d repairs accepted)", tp.FailedLinks, want, fails.Load(), repairs.Load())
	}
}

// TestGracefulShutdownDrain cancels the run context while a request is
// blocked inside a handler: Run must not return until the request
// completes, and the request must still succeed.
func TestGracefulShutdownDrain(t *testing.T) {
	srv := newTestServer(t)
	srv.cfg.RequestTimeout = time.Minute
	srv.cfg.DrainTimeout = 30 * time.Second

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv.preHandle = func(r *http.Request) {
		if r.URL.Path == "/topology" {
			once.Do(func() { close(entered) })
			<-release
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- srv.Run(ctx, ln) }()

	reqStatus := make(chan int, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/topology")
		if err != nil {
			reqStatus <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		reqStatus <- resp.StatusCode
	}()

	<-entered
	cancel()
	select {
	case err := <-runErr:
		t.Fatalf("Run returned (%v) while a request was still in flight", err)
	case <-time.After(150 * time.Millisecond):
	}

	close(release)
	if code := <-reqStatus; code != http.StatusOK {
		t.Fatalf("in-flight request finished with status %d, want 200", code)
	}
	if err := <-runErr; err != nil {
		t.Fatalf("Run returned %v after drain, want nil", err)
	}
}

func TestStartPprofBindFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if _, err := StartPprof(ln.Addr().String(), nil); err == nil {
		t.Fatal("StartPprof bound an already-bound address without error")
	}
}

func TestStartPprofServes(t *testing.T) {
	addr, err := StartPprof("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr.String() + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof status = %d", resp.StatusCode)
	}
}
