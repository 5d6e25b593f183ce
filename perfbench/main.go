package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"flattree/internal/parallel"
)

const (
	// defaultSeed is the seed the pinned digests cover.
	defaultSeed = 1
	// heldOutSeed is kept out of tuning: a claimed gain measured on
	// defaultSeed is confirmed on it before it is believed.
	heldOutSeed = 7
	// procsPerRun is how many fresh processes one run starts. Each sets
	// up from a cold start, so set-up time is a median of this many.
	procsPerRun = 5
	// runDeadline bounds a whole run, children included.
	runDeadline = 170 * time.Second
)

// workers is the one value GOMAXPROCS and the worker pool are pinned to:
// two, or fewer on a smaller machine.
func workers() int { return min(2, runtime.NumCPU()) }

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run: fct_batch, fbmix_stream, churn_replay or flatd_live")
		seed      = flag.Int64("seed", defaultSeed, "seed the workload's inputs are drawn from")
		seconds   = flag.Int("seconds", 20, "seconds of timed work in one run")
		trace     = flag.Int("trace", 0, "1 prints per-layer metrics from a traced run; 0 prints end-to-end metrics")
		out       = flag.String("out", ".bench_build", "directory for run records and span files")
		manifest  = flag.Bool("manifest", false, "print BENCHMARK.json generated from the catalog and exit")
		pin       = flag.Bool("pin", false, "recompute the pinned digests of -workload at the default seed and rewrite pins.json in the current directory")
		childMode = flag.Bool("child", false, "run as one workload process (internal)")
		setupOnly = flag.Bool("setup-only", false, "child: set up, report and exit (internal)")
		capOnly   = flag.Bool("capacity-only", false, "child: flatd_live runs its capacity phase only (internal)")
		budgetMS  = flag.Int("budget-ms", 0, "child: timed budget in milliseconds (internal)")
		proc      = flag.Int("proc", 0, "child: index of this process in its run (internal)")
		spanFile  = flag.String("span-file", "", "child: write recorded spans here (internal)")
	)
	flag.Parse()
	runtime.GOMAXPROCS(workers())
	parallel.SetDefaultWorkers(workers())

	var err error
	switch {
	case *manifest:
		err = writeManifest(os.Stdout)
	case *pin:
		err = pinWorkload(*workload)
	case *childMode:
		err = runChildProcess(*workload, *seed, *proc, time.Duration(*budgetMS)*time.Millisecond,
			*trace == 1, !*setupOnly, *capOnly, *spanFile)
	default:
		err = orchestrate(*workload, *seed, *seconds, *trace, *out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// runChildProcess runs one workload process and prints its report as the
// last line of standard output.
func runChildProcess(workload string, seed int64, proc int, budget time.Duration, traced, work, capOnly bool, spanFile string) error {
	c := newChild(workload, seed)
	c.proc, c.budget, c.traceRun, c.work, c.capacityOnly = proc, budget, traced, work, capOnly
	if seed == defaultSeed {
		pins, err := loadPins()
		if err != nil {
			return err
		}
		c.pins = pins[workload]
	}
	if err := runWorkload(c); err != nil {
		return err
	}
	c.checkCounts()
	if traced {
		c.rep.Layers = c.layerMetrics()
		if spanFile != "" {
			if err := writeSpans(spanFile, c.tr.all()); err != nil {
				return err
			}
		}
	}
	return json.NewEncoder(os.Stdout).Encode(&c.rep)
}

// runWorkload sets up and runs the named workload in this process.
func runWorkload(c *child) error {
	c.tr.on.Store(c.traceRun)
	c.setupSpan = c.tr.begin("phase.setup", -1)
	switch c.workload {
	case wFCT:
		return runFCT(c, fctFull())
	case wMix:
		return runFBMix(c, fbmixFlowsPerTrace)
	case wChurn:
		// A run's processes split its seed list; pinning covers all of it.
		first, n := c.proc*churnSeedCount, churnSeedCount
		if c.pinning {
			first, n = 0, procsPerRun*churnSeedCount
		}
		return runChurn(c, churnSeeds(c.seed, first, n))
	case wFlatd:
		return runFlatd(c)
	}
	return fmt.Errorf("unknown workload %q", c.workload)
}

// childResult is one finished child: its report, spawn time and peak RSS.
type childResult struct {
	rep    childReport
	spawn  time.Time
	rssKiB int64
	work   bool
}

// orchestrate runs one benchmark run: procsPerRun fresh processes of the
// workload, then the aggregate report and the result line.
func orchestrate(workload string, seed int64, seconds, trace int, out string) error {
	if _, ok := workloadByName(workload); !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", workload, workloadNames())
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds %d: want at least 1", seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	if _, err := loadPins(); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	self, err := os.Executable()
	if err != nil {
		return err
	}
	spanDir := filepath.Join(out, "spans")
	if trace == 1 {
		if err := os.MkdirAll(spanDir, 0o755); err != nil {
			return err
		}
	}
	budget := time.Duration(seconds) * time.Second
	var results []childResult
	for i := 0; i < procsPerRun; i++ {
		// In an untraced run, batch workloads share the budget across all
		// processes, and flatd_live runs every phase in the first process
		// and its capacity phase in the others. In a traced run the first
		// process does the timed work and the others only set up. Peak
		// memory counts from processes that did all of the timed work.
		work, share, role := i == 0, budget, ""
		switch {
		case trace == 1:
			if i > 0 {
				role = "-setup-only"
			}
		case workload == wFlatd:
			if i > 0 {
				role = "-capacity-only"
			}
		default:
			work, share = true, budget/procsPerRun
		}
		args := []string{"-child", "-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-proc", strconv.Itoa(i),
			"-trace", strconv.Itoa(trace), "-budget-ms", strconv.FormatInt(share.Milliseconds(), 10)}
		if role != "" {
			args = append(args, role)
		}
		if trace == 1 {
			args = append(args, "-span-file", filepath.Join(spanDir, fmt.Sprintf("%s-seed%d-proc%d.jsonl", workload, seed, i)))
		}
		r, err := runChild(ctx, self, args)
		if err != nil {
			return fmt.Errorf("%s process %d: %w", workload, i, err)
		}
		r.work = work
		results = append(results, r)
	}
	return report(os.Stdout, workload, seed, seconds, trace, out, results)
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.Name)
	}
	return strings.Join(ns, ", ")
}

// runChild starts one child, waits for it, and parses its report.
func runChild(ctx context.Context, self string, args []string) (childResult, error) {
	cmd := exec.CommandContext(ctx, self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	spawn := time.Now()
	if err := cmd.Run(); err != nil {
		if ctx.Err() != nil {
			return childResult{}, fmt.Errorf("run deadline %v exceeded", runDeadline)
		}
		return childResult{}, err
	}
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var r childResult
	if err := json.Unmarshal([]byte(last), &r.rep); err != nil {
		return childResult{}, fmt.Errorf("parse report: %w", err)
	}
	r.spawn = spawn
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return childResult{}, errors.New("no resource usage for child")
	}
	r.rssKiB = ru.Maxrss
	return r, nil
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report aggregates the children, prints every metric with its unit and
// direction, writes the run record, and prints the result line.
func report(w io.Writer, workload string, seed int64, seconds, trace int, out string, rs []childResult) error {
	var setups, passes, traced, rss []float64
	res := resultLine{Metrics: map[string]metricValue{}}
	var failures []string
	layerVals := map[string][]float64{}
	client := map[string]float64{}
	for _, r := range rs {
		setups = append(setups, float64(r.rep.Ready-r.spawn.UnixNano())/1e9)
		passes = append(passes, r.rep.Passes...)
		traced = append(traced, r.rep.Traced...)
		if r.work {
			rss = append(rss, float64(r.rssKiB)/1024)
			for k, v := range r.rep.Client {
				client[k] = v
			}
		}
		res.Attempted += r.rep.Attempted
		res.Failed += r.rep.Failed
		failures = append(failures, r.rep.Failures...)
		for k, v := range r.rep.Layers {
			layerVals[k] = append(layerVals[k], v)
		}
	}
	if res.Attempted == 0 {
		return errors.New("no operation was attempted")
	}
	res.Correct = res.Failed == 0

	prov := provenance(seed)
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%d\n", workload, seed, seconds, trace)
	fmt.Fprintf(w, "provenance %s\n", mustJSON(prov))
	fmt.Fprintf(w, "operations attempted=%d failed=%d error_rate=%.6g\n", res.Attempted, res.Failed,
		float64(res.Failed)/float64(res.Attempted))
	for _, f := range failures {
		fmt.Fprintf(w, "  failure: %s\n", f)
	}
	fmt.Fprintf(w, "samples setup=%d passes=%d traced_passes=%d rss=%d\n", len(setups), len(passes), len(traced), len(rss))

	if trace == 0 {
		vals := map[string]float64{
			"setup_s":    median(setups),
			"run_s":      median(passes),
			"max_rss_mb": median(rss),
		}
		if workload == wChurn {
			// Each process replayed its own slice of the seed list, so
			// the timed phase is all of the slices.
			vals["run_s"] = 0
			for _, r := range rs {
				vals["run_s"] += median(r.rep.Passes)
			}
		}
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metricValue{vals[m.Name], m.Unit}
			fmt.Fprintf(w, "metric %-28s %14.6g %-6s (%s is better)\n", m.Name, vals[m.Name], m.Unit, m.Better)
		}
		printClient(w, client)
	} else {
		overhead := (median(traced)/median(passes) - 1) * 100
		for _, m := range perLayer {
			v := 0.0
			if vs, ok := layerVals[m.Name]; ok {
				v = median(vs)
			}
			if m.Name == "bench.trace_overhead_pct" {
				v = overhead
			}
			res.Metrics[m.Name] = metricValue{v, m.Unit}
			fmt.Fprintf(w, "layer  %-28s %14.6g %-6s (%s is better) moves %s\n", m.Name, v, m.Unit, m.Better, targetsString(m.Moves))
		}
	}
	samples := map[string][]float64{"setup_s": setups, "run_s": passes, "traced_run_s": traced, "max_rss_mb": rss}
	if err := writeRunRecord(out, workload, seed, trace, prov, res, client, samples); err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(&res)
}

// printClient prints the load generator's untraced latency and capacity
// figures with their sample counts.
func printClient(w io.Writer, client map[string]float64) {
	if len(client) == 0 {
		return
	}
	var keys []string
	for k := range client {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "client %-28s %14.6g\n", k, client[k])
	}
}

func targetsString(ts []target) string {
	var parts []string
	for _, t := range ts {
		parts = append(parts, t.Metric+"@"+t.Workload)
	}
	return strings.Join(parts, ",")
}

func mustJSON(v interface{}) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// writeRunRecord keeps a run's provenance, result and raw samples under
// out/runs.
func writeRunRecord(out, workload string, seed int64, trace int, prov map[string]interface{}, res resultLine,
	client map[string]float64, samples map[string][]float64) error {
	dir := filepath.Join(out, "runs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec := map[string]interface{}{"workload": workload, "provenance": prov, "result": res, "client": client, "samples": samples}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", workload, seed, trace, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}
