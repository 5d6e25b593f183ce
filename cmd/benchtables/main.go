// Command benchtables regenerates every table and figure of the paper in
// one run, printing paper-style output for each, plus the ablation studies.
// This is the one-shot reproduction harness; see EXPERIMENTS.md for the
// recorded paper-versus-measured comparison.
//
// Telemetry is always on: the run ends with a per-experiment wall-time
// table (from the experiment root spans) and the simulator/solver event
// counters, the source data for the bench trajectory (BENCH_*.json).
//
// Usage:
//
//	benchtables                  # reduced scale, all experiments (minutes)
//	benchtables -full            # paper scale (hours)
//	benchtables -telemetry b.json  # also write the full JSON snapshot
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"flattree/internal/experiments"
	"flattree/internal/metrics"
	"flattree/internal/parallel"
	"flattree/internal/recorder"
	"flattree/internal/telemetry"
)

func main() {
	var (
		full     = flag.Bool("full", false, "paper-scale topologies (slow)")
		seed     = flag.Int64("seed", 1, "seed for all stochastic components")
		epsilon  = flag.Float64("epsilon", 0.25, "LP approximation accuracy")
		telemOut = flag.String("telemetry", "", "write the JSON telemetry snapshot to this file, or '-' for stdout")
		workers  = flag.Int("workers", 0, "worker-pool size for parallel sections (0 = GOMAXPROCS); results are identical for any value")
		fbmix    = flag.Int("fbmix-flows", 0, "fbmix_large: flows per workload (0 = scale default; 2500000 runs 10M flows total)")
		record   = flag.String("record", "", "flight-recorder output base: writes <base>.trace.json (Perfetto), <base>.jsonl (journal), <base>.runinfo.json")
		recLimit = flag.Int("record-limit", recorder.DefaultLimit, "flight-recorder ring capacity: events kept per track before the oldest are dropped")
		runinfo  = flag.String("runinfo", "runinfo.json", "write the provenance manifest to this file, or '-' for stdout; empty disables (with -record the manifest goes to <base>.runinfo.json instead)")
	)
	flag.Parse()
	if err := experiments.CheckFlags(*workers, *epsilon, *fbmix, *recLimit); err != nil {
		fmt.Fprintf(os.Stderr, "benchtables: %v\n", err)
		os.Exit(2)
	}
	parallel.SetDefaultWorkers(*workers)
	cfg := experiments.Config{Full: *full, Seed: *seed, Epsilon: *epsilon, FBMixFlows: *fbmix}
	reg := telemetry.Enable()
	var rec *recorder.Recorder
	if *record != "" {
		rec = recorder.Enable(*recLimit)
	}

	order := []string{
		"table1", "table2", "fig5", "fig6", "fig7", "fig8",
		"fig10", "table3", "fig11", "rules", "props", "cost", "hybrid-placement",
		"ablation-wiring", "ablation-profile", "ablation-sidewiring", "ablation-k",
		"ablation-failures", "churn", "ablation-packet", "ablation-packet-fct", "ablation-gradual",
		"fbmix_large",
	}
	failures := 0
	grand := time.Now()
	for _, oc := range experiments.RunAll(order, cfg) {
		if oc.Err != nil {
			fmt.Fprintf(os.Stderr, "benchtables: %s failed: %v\n", oc.Name, oc.Err)
			failures++
			continue
		}
		fmt.Println(oc.Result.String())
		fmt.Printf("(%s in %v)\n\n", oc.Name, oc.Elapsed.Round(time.Millisecond))
	}
	fmt.Printf("all experiments done in %v, %d failures\n\n", time.Since(grand).Round(time.Second), failures)

	snap := reg.Snapshot()
	fmt.Println(summarize(snap, order))
	if *telemOut != "" {
		if err := recorder.WriteFile(*telemOut, snap.WriteJSON); err != nil {
			fmt.Fprintf(os.Stderr, "benchtables: telemetry snapshot: %v\n", err)
			failures++
		}
	}
	if err := recorder.WriteRecord("benchtables", rec, snap, *record, *runinfo, *seed, *workers); err != nil {
		fmt.Fprintf(os.Stderr, "benchtables: %v\n", err)
		failures++
	}
	if failures > 0 {
		os.Exit(1)
	}
}

// summarize renders the run's telemetry: per-experiment wall time from the
// root spans, then every counter — the event totals that make run-to-run
// performance comparable. Rows follow the experiment order, not the
// schedule-dependent span collection order.
func summarize(snap *telemetry.Snapshot, order []string) string {
	type row struct {
		wall        string
		conversions int
	}
	rows := map[string]row{}
	for _, sp := range snap.Spans {
		name, ok := strings.CutPrefix(sp.Name, "experiment:")
		if !ok {
			continue
		}
		rows[name] = row{fmt.Sprintf("%.3f", sp.DurationSeconds), countSpans(sp.Children, "conversion")}
	}
	st := &metrics.Table{Header: []string{"experiment", "wall time (s)", "conversions"}}
	for _, name := range order {
		if r, ok := rows[name]; ok {
			st.Add(name, r.wall, r.conversions)
		}
	}
	out := "== telemetry: per-experiment wall time ==\n" + st.String()

	ct := &metrics.Table{Header: []string{"counter", "value"}}
	keys := make([]string, 0, len(snap.Counters))
	for k := range snap.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ct.Add(k, snap.Counters[k])
	}
	return out + "\n== telemetry: event counters ==\n" + ct.String()
}

// countSpans counts spans with the given name anywhere under the nodes.
func countSpans(spans []telemetry.SpanSnapshot, name string) int {
	n := 0
	for _, s := range spans {
		if s.Name == name {
			n++
		}
		n += countSpans(s.Children, name)
	}
	return n
}
