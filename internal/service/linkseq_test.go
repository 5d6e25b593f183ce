package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"slices"
	"testing"

	"flattree/internal/churn"
	"flattree/internal/core"
	"flattree/internal/telemetry"
	"flattree/internal/topo"
)

// twinParams is a 4-pod flat-tree whose edge switches reach each agg
// over two parallel links, so link events pick among twins.
var twinParams = topo.ClosParams{
	Name: "svc-twins", Pods: 4, EdgesPerPod: 2, AggsPerPod: 2,
	ServersPerEdge: 3, EdgeUplinks: 4, AggUplinks: 4, Cores: 4,
}

// seqEventResult decodes the /events/link fields the sequence test
// compares, failed_links included.
type seqEventResult struct {
	Link            int           `json:"link"`
	RulesDeleted    int           `json:"rules_deleted"`
	RulesAdded      int           `json:"rules_added"`
	ReactionSeconds float64       `json:"reaction_seconds"`
	RuleDelta       []switchDelta `json:"rule_delta"`
	FailedLinks     []failedLink  `json:"failed_links"`
}

// linkSequence draws a seeded trace of link events on tp: fails and
// repairs of random switch adjacencies, each named in a random endpoint
// order, with a cut that fails every link of edge switch cut in the
// middle. It keeps a count per adjacency, so every event is one flatd
// accepts.
func linkSequence(tp *topo.Topology, cut, n int, rng *rand.Rand) churn.Trace {
	links := map[[2]int]int{}
	var adj [][2]int
	for _, l := range tp.G.Links() {
		if tp.Nodes[l.A].Kind == topo.Server || tp.Nodes[l.B].Kind == topo.Server {
			continue
		}
		key := [2]int{min(l.A, l.B), max(l.A, l.B)}
		if links[key] == 0 {
			adj = append(adj, key)
		}
		links[key]++
	}
	failed := map[[2]int]int{}
	var tr churn.Trace
	cutDone := false
	add := func(key [2]int, repair bool) {
		a, b := key[0], key[1]
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		if repair {
			failed[key]--
		} else {
			failed[key]++
		}
		tr = append(tr, churn.Event{Time: 0.1 * float64(len(tr)), A: a, B: b, Repair: repair})
	}
	for len(tr) < n {
		if len(tr) >= n/2 && !cutDone {
			cutDone = true
			for _, key := range adj {
				if key[0] == cut || key[1] == cut {
					for failed[key] < links[key] {
						add(key, false)
					}
				}
			}
			continue
		}
		key := adj[rng.Intn(len(adj))]
		switch {
		case failed[key] > 0 && rng.Intn(2) == 0:
			add(key, true)
		case failed[key] < links[key]:
			add(key, false)
		}
	}
	return tr
}

// TestLinkEventSequenceMatchesOffline sends flatd a seeded sequence of
// link events on a fabric with parallel twins — fails and repairs in
// either endpoint order, and a cut that isolates one edge switch, which
// flatd accepts — and checks every response against churn.Engine.Compile
// on the same trace: the link, the rule delta, its totals and the priced
// reaction. failed_links in the response and in /topology must equal the
// links the offline fold has masked, each listed low-first.
func TestLinkEventSequenceMatchesOffline(t *testing.T) {
	nw, err := core.New(twinParams, core.Options{N: 1, M: 1, Pattern: core.Pattern1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Network: nw, K: 4, Detection: 0.05, Delay: testDelay(), Registry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	tp := srv.topo
	cut := tp.Edges()[1]
	trace := linkSequence(tp, cut, 48, rand.New(rand.NewSource(11)))

	eng := &churn.Engine{Topo: tp, K: 4, Detection: 0.05, Delay: testDelay()}
	plan, err := eng.Compile(trace, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The capacity events follow the trace order; each names the link
	// its event masks or restores.
	var offline []int
	for _, ev := range plan.Events {
		for slot := range ev.SetCaps {
			if slot%2 == 0 {
				offline = append(offline, slot/2)
			}
		}
	}
	if len(offline) != len(trace) {
		t.Fatalf("%d capacity events for %d trace events", len(offline), len(trace))
	}

	var cutLinks []int
	for _, id := range tp.G.Incident(cut) {
		if tp.Nodes[tp.G.Link(id).Other(cut)].Kind != topo.Server {
			cutLinks = append(cutLinks, id)
		}
	}
	masked := map[int]bool{}
	var named [2][2]int // by action (fail, repair), then low- or high-first
	isolated := false
	for i, ev := range trace {
		action, ai, hi := "fail", 0, 0
		if ev.Repair {
			action, ai = "repair", 1
		}
		if ev.A > ev.B {
			hi = 1
		}
		named[ai][hi]++
		code, body := do(t, srv, http.MethodPost, "/events/link", fmt.Sprintf(`{"action":%q,"a":%d,"b":%d}`, action, ev.A, ev.B))
		if code != http.StatusOK {
			t.Fatalf("event %d (%s %d-%d): status %d, body %s", i, action, ev.A, ev.B, code, body)
		}
		var got seqEventResult
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if got.Link != offline[i] {
			t.Fatalf("event %d (%s %d-%d): link %d, offline %d", i, action, ev.A, ev.B, got.Link, offline[i])
		}
		masked[got.Link] = !ev.Repair
		if got.ReactionSeconds != plan.Reactions[i] {
			t.Fatalf("event %d: reaction %v, offline %v", i, got.ReactionSeconds, plan.Reactions[i])
		}
		if got.RulesDeleted != plan.Deltas[i].TotalDels() || got.RulesAdded != plan.Deltas[i].TotalAdds() {
			t.Fatalf("event %d: rule totals (%d dels, %d adds), offline (%d, %d)", i,
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
			t.Fatalf("event %d: rule delta %s, offline %s", i, gotDelta, wantDelta)
		}

		want := []failedLink{}
		for id := range tp.G.Links() {
			if masked[id] {
				l := tp.G.Link(id)
				want = append(want, failedLink{Link: id, A: min(l.A, l.B), B: max(l.A, l.B)})
			}
		}
		if !reflect.DeepEqual(got.FailedLinks, want) {
			t.Fatalf("event %d (%s %d-%d): failed_links %v, want %v", i, action, ev.A, ev.B, got.FailedLinks, want)
		}
		code, body = do(t, srv, http.MethodGet, "/topology", "")
		var topoBody topologyResponse
		if code != http.StatusOK || json.Unmarshal(body, &topoBody) != nil {
			t.Fatalf("event %d: /topology status %d, body %s", i, code, body)
		}
		if !reflect.DeepEqual(topoBody.FailedLinks, want) {
			t.Fatalf("event %d: /topology failed_links %v, want %v", i, topoBody.FailedLinks, want)
		}
		isolated = isolated || !slices.ContainsFunc(cutLinks, func(id int) bool { return !masked[id] })
	}
	if slices.Contains([]int{named[0][0], named[0][1], named[1][0], named[1][1]}, 0) || !isolated {
		t.Fatalf("trace lost its coverage: fails named low/high-first %v, repairs %v; edge %d isolated %v",
			named[0], named[1], cut, isolated)
	}
}
