// Command flatsim runs any experiment of the flat-tree reproduction by ID
// (DESIGN.md's per-experiment index) and prints the paper-style table.
//
// Usage:
//
//	flatsim -exp table1                # reduced scale (default)
//	flatsim -exp fig8 -full            # paper scale (slow)
//	flatsim -exp churn                 # failure-over-time FCT study
//	flatsim -exp all                   # every experiment in sequence
//	flatsim -list                      # show experiment IDs
//	flatsim -exp table3 -telemetry -   # JSON telemetry snapshot to stdout
//	flatsim -exp fig8 -prom metrics.prom -pprof localhost:6060
//	flatsim -exp churn -record run     # run.trace.json + run.jsonl + run.runinfo.json
//
// Every run writes a provenance manifest (seed, workers, toolchain, git
// revision, flag set, telemetry counter digest) — runinfo.json by
// default, -runinfo to move or disable it.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"flattree/internal/experiments"
	"flattree/internal/parallel"
	"flattree/internal/recorder"
	"flattree/internal/service"
	"flattree/internal/telemetry"
)

func main() {
	var (
		exp       = flag.String("exp", "", "experiment ID to run (or 'all', or a comma-separated list)")
		full      = flag.Bool("full", false, "run at paper scale (topo-1..6, k=16 fat-tree); slow")
		seed      = flag.Int64("seed", 1, "seed for all stochastic components")
		epsilon   = flag.Float64("epsilon", 0.25, "LP approximation accuracy (smaller = tighter, slower)")
		list      = flag.Bool("list", false, "list experiment IDs and exit")
		csvDir    = flag.String("csv", "", "also write figure series as CSV files into this directory (fig8, fig10)")
		telemOut  = flag.String("telemetry", "", "write a JSON telemetry snapshot (metrics, traces) to this file, or '-' for stdout")
		promOut   = flag.String("prom", "", "write Prometheus text-exposition metrics to this file, or '-' for stdout")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for live profiling")
		workers   = flag.Int("workers", 0, "worker-pool size for parallel sections (0 = GOMAXPROCS); results are identical for any value")
		fbmix     = flag.Int("fbmix-flows", 0, "fbmix_large: flows per workload (0 = scale default; 2500000 runs 10M flows total)")
		record    = flag.String("record", "", "flight-recorder output base: writes <base>.trace.json (Perfetto), <base>.jsonl (journal), <base>.runinfo.json")
		recLimit  = flag.Int("record-limit", recorder.DefaultLimit, "flight-recorder ring capacity: events kept per track before the oldest are dropped")
		runinfo   = flag.String("runinfo", "runinfo.json", "write the provenance manifest to this file, or '-' for stdout; empty disables (with -record the manifest goes to <base>.runinfo.json instead)")
	)
	flag.Parse()
	if err := experiments.CheckFlags(*workers, *epsilon, *fbmix, *recLimit); err != nil {
		fmt.Fprintf(os.Stderr, "flatsim: %v\n", err)
		os.Exit(2)
	}
	parallel.SetDefaultWorkers(*workers)

	if *list {
		fmt.Println(strings.Join(experiments.Names(), "\n"))
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "flatsim: -exp required (use -list to see experiments)")
		os.Exit(2)
	}
	names, err := resolveExperiments(*exp, experiments.Names())
	if err != nil {
		fmt.Fprintf(os.Stderr, "flatsim: %v\n", err)
		os.Exit(2)
	}

	// Telemetry is always on: the provenance manifest digests the
	// counters, and the per-experiment stderr summary reads the flowsim
	// stall/reroute/disconnect totals. The snapshot/Prometheus files are
	// still opt-in.
	reg := telemetry.Enable()
	var rec *recorder.Recorder
	if *record != "" {
		rec = recorder.Enable(*recLimit)
	}
	// Pre-bind the pprof listener so the banner never announces an address
	// that failed to bind; a bad -pprof flag is a startup error, not a
	// background log line racing the experiment output.
	if *pprofAddr != "" {
		pa, err := service.StartPprof(*pprofAddr, func(err error) {
			fmt.Fprintf(os.Stderr, "flatsim: pprof server: %v\n", err)
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "flatsim: pprof listen on %s: %v\n", *pprofAddr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "flatsim: pprof at http://%s/debug/pprof/\n", pa)
	}

	// Experiment tables go to stdout; timing and errors go to stderr, so
	// stdout is byte-identical run to run (and across -workers values) at
	// a fixed seed.
	cfg := experiments.Config{Full: *full, Seed: *seed, Epsilon: *epsilon, FBMixFlows: *fbmix}
	if *csvDir == "" && len(names) > 1 {
		failed := false
		for _, oc := range experiments.RunAll(names, cfg) {
			if oc.Err != nil {
				fmt.Fprintf(os.Stderr, "flatsim: %s: %v\n", oc.Name, oc.Err)
				failed = true
				continue
			}
			fmt.Println(oc.Result.String())
			fmt.Fprintf(os.Stderr, "(%s in %v)\n", oc.Name, oc.Elapsed.Round(time.Millisecond))
		}
		// Experiments ran concurrently, so the global flow counters can
		// only be reported as batch totals here.
		if fs := flowCounters(reg); fs.any() {
			fmt.Fprintf(os.Stderr, "flows over all experiments: %s\n", fs)
		}
		if failed {
			os.Exit(1)
		}
	} else {
		prev := flowCounters(reg)
		for _, name := range names {
			start := time.Now()
			var res experiments.Result
			var err error
			if *csvDir != "" {
				res, err = experiments.RunWithCSV(name, cfg, *csvDir)
			} else {
				res, err = experiments.Run(name, cfg)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "flatsim: %s: %v\n", name, err)
				os.Exit(1)
			}
			fmt.Println(res.String())
			cur := flowCounters(reg)
			if d := cur.sub(prev); d.any() {
				fmt.Fprintf(os.Stderr, "(%s in %v; flows: %s)\n", name, time.Since(start).Round(time.Millisecond), d)
			} else {
				fmt.Fprintf(os.Stderr, "(%s in %v)\n", name, time.Since(start).Round(time.Millisecond))
			}
			prev = cur
		}
	}

	if err := writeTelemetry(reg, *telemOut, *promOut); err != nil {
		fmt.Fprintf(os.Stderr, "flatsim: %v\n", err)
		os.Exit(1)
	}
	if err := recorder.WriteRecord("flatsim", rec, reg.Snapshot(), *record, *runinfo, *seed, *workers); err != nil {
		fmt.Fprintf(os.Stderr, "flatsim: %v\n", err)
		os.Exit(1)
	}
}

// flowStats are the simulator's per-flow incident counters at one
// instant; per-experiment deltas make up the stderr summary.
type flowStats struct {
	stalls, reroutes, disconnects int64
}

func flowCounters(reg *telemetry.Registry) flowStats {
	snap := reg.Snapshot()
	return flowStats{
		stalls:      snap.Counters["flowsim_stalls_total"],
		reroutes:    snap.Counters["flowsim_reroutes_total"],
		disconnects: snap.Counters["flowsim_disconnected_total"],
	}
}

func (f flowStats) sub(prev flowStats) flowStats {
	return flowStats{f.stalls - prev.stalls, f.reroutes - prev.reroutes, f.disconnects - prev.disconnects}
}

func (f flowStats) any() bool { return f.stalls != 0 || f.reroutes != 0 || f.disconnects != 0 }

func (f flowStats) String() string {
	return fmt.Sprintf("%d stalled, %d rerouted, %d disconnected", f.stalls, f.reroutes, f.disconnects)
}

// resolveExperiments expands and validates the -exp argument against the
// registered IDs: "all" selects every experiment, a comma-separated list
// selects several, and any unknown ID is an error naming the valid ones.
func resolveExperiments(arg string, valid []string) ([]string, error) {
	known := make(map[string]bool, len(valid))
	for _, v := range valid {
		known[v] = true
	}
	sorted := append([]string(nil), valid...)
	sort.Strings(sorted)

	var names []string
	for _, name := range strings.Split(arg, ",") {
		name = strings.TrimSpace(name)
		switch {
		case name == "":
			continue
		case name == "all":
			names = append(names, sorted...)
		case known[name]:
			names = append(names, name)
		default:
			return nil, fmt.Errorf("unknown experiment %q; valid IDs:\n  %s",
				name, strings.Join(sorted, "\n  "))
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no experiment selected; valid IDs:\n  %s", strings.Join(sorted, "\n  "))
	}
	return names, nil
}

// writeTelemetry dumps the run's telemetry in the requested formats;
// "-" targets stdout.
func writeTelemetry(reg *telemetry.Registry, jsonOut, promOut string) error {
	if reg == nil {
		return nil
	}
	if jsonOut != "" {
		if err := recorder.WriteFile(jsonOut, reg.WriteJSON); err != nil {
			return fmt.Errorf("telemetry snapshot: %w", err)
		}
	}
	if promOut != "" {
		if err := recorder.WriteFile(promOut, reg.WritePrometheus); err != nil {
			return fmt.Errorf("prometheus export: %w", err)
		}
	}
	return nil
}
