package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

func readBenchmarkJSON(t *testing.T) map[string]interface{} {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]interface{}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesCatalog keeps BENCHMARK.json the catalog's output.
func TestManifestMatchesCatalog(t *testing.T) {
	var buf bytes.Buffer
	if err := writeManifest(&buf); err != nil {
		t.Fatal(err)
	}
	var want map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &want); err != nil {
		t.Fatal(err)
	}
	if got := readBenchmarkJSON(t); !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json differs from the catalog; regenerate it with perfbench -manifest")
	}
}

func names(t *testing.T, list interface{}) []string {
	t.Helper()
	var out []string
	for _, e := range list.([]interface{}) {
		out = append(out, e.(map[string]interface{})["name"].(string))
	}
	sort.Strings(out)
	return out
}

// TestPrintedNamesMatchManifest runs the report of an untraced and a
// traced run and compares the metric names of each result line with
// BENCHMARK.json.
func TestPrintedNamesMatchManifest(t *testing.T) {
	man := readBenchmarkJSON(t)
	children := []childResult{{
		rep:   childReport{Ready: time.Now().UnixNano(), Passes: []float64{1}, Traced: []float64{1.01}, Attempted: 1, Layers: map[string]float64{"routing.build_s": 0.5}},
		spawn: time.Now().Add(-time.Second), rssKiB: 1024, work: true,
	}}
	for trace, key := range map[int]string{0: "end_to_end", 1: "per_layer"} {
		var buf bytes.Buffer
		if err := report(&buf, wFCT, 1, 10, trace, t.TempDir(), children); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var res struct {
			Metrics map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		var got []string
		units := map[string]string{}
		for k, v := range res.Metrics {
			got = append(got, k)
			units[k] = v.Unit
		}
		sort.Strings(got)
		if want := names(t, man[key]); !reflect.DeepEqual(got, want) {
			t.Errorf("trace=%d printed %v, BENCHMARK.json %s has %v", trace, got, key, want)
		}
		for _, e := range man[key].([]interface{}) {
			m := e.(map[string]interface{})
			if units[m["name"].(string)] != m["unit"] {
				t.Errorf("%s printed with unit %q, BENCHMARK.json says %q", m["name"], units[m["name"].(string)], m["unit"])
			}
			if !strings.Contains(buf.String(), "("+m["better"].(string)+" is better)") {
				t.Errorf("%s: direction not printed", m["name"])
			}
		}
	}
}

// TestPerLayerTargets requires every per-layer metric to name the
// end-to-end metric and workload it should move.
func TestPerLayerTargets(t *testing.T) {
	e2e := map[string]bool{}
	for _, m := range endToEnd {
		e2e[m.Name] = true
	}
	for _, m := range perLayer {
		if len(m.Moves) == 0 {
			t.Errorf("%s names no end-to-end metric", m.Name)
		}
		for _, tg := range m.Moves {
			if _, ok := workloadByName(tg.Workload); !ok || !e2e[tg.Metric] {
				t.Errorf("%s moves %s on %s, which is not an end-to-end metric on a workload", m.Name, tg.Metric, tg.Workload)
			}
		}
	}
}

// TestManifestLimits checks the catalog against the limits a benchmark
// manifest must keep.
func TestManifestLimits(t *testing.T) {
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRe.MatchString(name) || seen[name] {
			t.Errorf("bad or repeated name %q", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(m.Name)
		if !unitRe.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
			for _, o := range endToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s bound %v is not the largest (%s has %v)", m.Bound, o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("no setup_s end-to-end metric in seconds, lower is better")
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
}
