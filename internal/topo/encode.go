package topo

import (
	"encoding/json"
	"fmt"
	"io"
)

// Serialization: topologies export to JSON (for external analysis
// pipelines) and Graphviz DOT (for visual inspection of small networks).
// The JSON form round-trips losslessly; its decoder lives with the
// round-trip test.

// jsonTopology is the wire form.
type jsonTopology struct {
	Name  string     `json:"name"`
	Pods  int        `json:"pods"`
	Nodes []jsonNode `json:"nodes"`
	Links []jsonLink `json:"links"`
}

type jsonNode struct {
	ID         int    `json:"id"`
	Kind       string `json:"kind"`
	Pod        int    `json:"pod"`
	LocalIndex int    `json:"localIndex"`
	// AttachedTo is the uplink switch for servers, -1 otherwise.
	AttachedTo int `json:"attachedTo"`
}

type jsonLink struct {
	A        int     `json:"a"`
	B        int     `json:"b"`
	Capacity float64 `json:"capacityGbps"`
}

// WriteJSON serializes the topology.
func (t *Topology) WriteJSON(w io.Writer) error {
	jt := jsonTopology{Name: t.Name, Pods: t.NumPods()}
	for _, n := range t.Nodes {
		jn := jsonNode{ID: n.ID, Kind: n.Kind.String(), Pod: n.Pod,
			LocalIndex: n.LocalIndex, AttachedTo: -1}
		if n.Kind == Server {
			jn.AttachedTo = t.AttachedSwitch(n.ID)
		}
		jt.Nodes = append(jt.Nodes, jn)
	}
	for _, l := range t.G.Links() {
		na, nb := t.Nodes[l.A], t.Nodes[l.B]
		if na.Kind == Server || nb.Kind == Server {
			continue // server uplinks are encoded via AttachedTo
		}
		jt.Links = append(jt.Links, jsonLink{A: l.A, B: l.B, Capacity: l.Capacity})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jt)
}

// WriteDOT emits a Graphviz representation: switches as boxes colored by
// role, servers as small circles, pods as clusters.
func (t *Topology) WriteDOT(w io.Writer) error {
	var err error
	p := func(format string, args ...interface{}) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("graph %q {\n  graph [overlap=false];\n", t.Name)
	style := map[Kind]string{
		Server: `shape=circle, width=0.2, label="", style=filled, fillcolor=gray70`,
		Edge:   `shape=box, style=filled, fillcolor="#cfe8ff"`,
		Agg:    `shape=box, style=filled, fillcolor="#ffe7b3"`,
		Core:   `shape=box, style=filled, fillcolor="#d8f0d0"`,
	}
	// Group pod members into clusters.
	byPod := map[int][]Node{}
	for _, n := range t.Nodes {
		byPod[n.Pod] = append(byPod[n.Pod], n)
	}
	for pod := 0; pod < t.NumPods(); pod++ {
		p("  subgraph cluster_pod%d {\n    label=\"pod %d\";\n", pod, pod)
		for _, n := range byPod[pod] {
			p("    n%d [%s];\n", n.ID, style[n.Kind])
		}
		p("  }\n")
	}
	for _, n := range byPod[-1] {
		p("  n%d [%s];\n", n.ID, style[n.Kind])
	}
	for _, l := range t.G.Links() {
		p("  n%d -- n%d;\n", l.A, l.B)
	}
	p("}\n")
	return err
}
