package topo

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	orig, err := BuildClos(FatTree(4))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != orig.Name || back.NumPods() != orig.NumPods() {
		t.Fatalf("metadata lost: %s/%d", back.Name, back.NumPods())
	}
	if back.G.NumNodes() != orig.G.NumNodes() {
		t.Fatalf("nodes %d, want %d", back.G.NumNodes(), orig.G.NumNodes())
	}
	if back.G.NumLinks() != orig.G.NumLinks() {
		t.Fatalf("links %d, want %d", back.G.NumLinks(), orig.G.NumLinks())
	}
	for _, s := range orig.Servers() {
		if back.AttachedSwitch(s) != orig.AttachedSwitch(s) {
			t.Fatalf("server %d attachment changed", s)
		}
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	// Node roles preserved.
	for i, n := range orig.Nodes {
		if back.Nodes[i].Kind != n.Kind || back.Nodes[i].Pod != n.Pod {
			t.Fatalf("node %d role changed", i)
		}
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	cases := []string{
		`{`,
		`{"name":"x","nodes":[{"id":0,"kind":"alien","pod":0}]}`,
		`{"name":"x","nodes":[{"id":5,"kind":"edge","pod":0}]}`,
		`{"name":"x","nodes":[{"id":0,"kind":"edge","pod":0}],"links":[{"a":0,"b":9}]}`,
		`{"name":"x","nodes":[{"id":0,"kind":"server","pod":0,"attachedTo":7}]}`,
	}
	for _, c := range cases {
		if _, err := ReadJSON(strings.NewReader(c)); err == nil {
			t.Errorf("accepted %q", c)
		}
	}
}

func TestWriteDOT(t *testing.T) {
	ft, _ := BuildClos(FatTree(4))
	var buf bytes.Buffer
	if err := ft.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"graph", "cluster_pod0", "cluster_pod3", " -- "} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q", want)
		}
	}
	// One node statement per node, one edge per link.
	if got := strings.Count(out, " -- "); got != ft.G.NumLinks() {
		t.Fatalf("edges = %d, want %d", got, ft.G.NumLinks())
	}
}

// ReadJSON reconstructs a topology written by WriteJSON.
func ReadJSON(r io.Reader) (*Topology, error) {
	var jt jsonTopology
	if err := json.NewDecoder(r).Decode(&jt); err != nil {
		return nil, fmt.Errorf("topo: decoding: %w", err)
	}
	t := NewTopology(jt.Name)
	t.SetNumPods(jt.Pods)
	kinds := map[string]Kind{"server": Server, "edge": Edge, "agg": Agg, "core": Core}
	type pending struct{ server, sw int }
	var attachments []pending
	for i, jn := range jt.Nodes {
		k, ok := kinds[jn.Kind]
		if !ok {
			return nil, fmt.Errorf("topo: node %d has unknown kind %q", jn.ID, jn.Kind)
		}
		id := t.AddNode(k, jn.Pod)
		if id != jn.ID || id != i {
			return nil, fmt.Errorf("topo: node IDs must be dense and ordered (got %d at %d)", jn.ID, i)
		}
		t.Nodes[id].LocalIndex = jn.LocalIndex
		if k == Server {
			attachments = append(attachments, pending{server: id, sw: jn.AttachedTo})
		}
	}
	for _, l := range jt.Links {
		if l.A < 0 || l.A >= len(t.Nodes) || l.B < 0 || l.B >= len(t.Nodes) {
			return nil, fmt.Errorf("topo: link %d-%d out of range", l.A, l.B)
		}
		t.G.AddLink(l.A, l.B, l.Capacity)
	}
	for _, a := range attachments {
		if a.sw < 0 || a.sw >= len(t.Nodes) {
			return nil, fmt.Errorf("topo: server %d attached to missing switch %d", a.server, a.sw)
		}
		t.AttachServer(a.server, a.sw)
	}
	return t, nil
}
