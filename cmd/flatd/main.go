// Command flatd is the resident flat-tree control-plane daemon: it owns a
// live convertible topology with an incremental route table and serves
// conversion quotes, route lookups, link events, and telemetry over
// HTTP/JSON (internal/service).
//
// Usage:
//
//	flatd                                   # mini-1, clos, localhost:8080
//	flatd -topo topo-1 -full -mode local
//	flatd -addr 127.0.0.1:0                 # ephemeral port (printed on stderr)
//	flatd -pprof localhost:6060
//
// The daemon binds its listener before announcing itself, and a SIGINT or
// SIGTERM begins a graceful shutdown: the listener closes, in-flight
// requests drain (bounded by -drain-timeout), and the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"flattree/internal/control"
	"flattree/internal/core"
	"flattree/internal/experiments"
	"flattree/internal/parallel"
	"flattree/internal/service"
	"flattree/internal/telemetry"
)

func main() {
	var (
		addr       = flag.String("addr", "localhost:8080", "address to serve HTTP on")
		topoName   = flag.String("topo", "mini-1", "topology preset to own (see flatsim -list scales)")
		full       = flag.Bool("full", false, "use paper-scale presets (topo-1..6)")
		mode       = flag.String("mode", "clos", "initial mode for every pod: clos, local, or global")
		k          = flag.Int("k", 8, "k-shortest paths per ingress pair in the live route table")
		detection  = flag.Float64("detection", 0.05, "failure-detection latency priced into link-event reactions, seconds")
		sequential = flag.Bool("sequential-rules", false, "price rule updates sequentially (testbed legacy switches) instead of per-switch parallel")
		workers    = flag.Int("workers", 0, "worker-pool size for parallel sections (0 = GOMAXPROCS)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		reqTimeout = flag.Duration("request-timeout", 10*time.Second, "per-request handling deadline")
		drain      = flag.Duration("drain-timeout", 15*time.Second, "how long shutdown waits for in-flight requests")
		spanLimit  = flag.Int("span-limit", 512, "request root spans kept in the telemetry registry (0 = unbounded)")
	)
	flag.Parse()
	err := checkFlags(*workers, *spanLimit)
	if err == nil {
		parallel.SetDefaultWorkers(*workers)
		err = run(*addr, *topoName, *full, *mode, *k, *detection, *sequential,
			*pprofAddr, *reqTimeout, *drain, *spanLimit)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "flatd: %v\n", err)
		os.Exit(1)
	}
}

// checkFlags rejects the negative values that no consumer checks itself:
// parallel.SetDefaultWorkers and Registry.SetRootSpanLimit would turn
// them into their zero defaults (GOMAXPROCS, an unbounded history). The
// durations, -k and -detection are checked by service.New.
func checkFlags(workers, spanLimit int) error {
	if workers < 0 {
		return fmt.Errorf("-workers %d (want >= 0; 0 = GOMAXPROCS)", workers)
	}
	if spanLimit < 0 {
		return fmt.Errorf("-span-limit %d (want >= 0; 0 = unbounded)", spanLimit)
	}
	return nil
}

func run(addr, topoName string, full bool, mode string, k int, detection float64,
	sequential bool, pprofAddr string, reqTimeout, drain time.Duration, spanLimit int) error {
	m, err := core.ParseMode(mode)
	if err != nil {
		return err
	}
	nw, err := experiments.Config{Full: full}.Network(topoName)
	if err != nil {
		return err
	}
	nw.SetMode(m)

	reg := telemetry.Enable()
	reg.SetRootSpanLimit(spanLimit)

	delay := control.TestbedDelayModel()
	delay.Parallel = !sequential
	srv, err := service.New(service.Config{
		Network:        nw,
		K:              k,
		Detection:      detection,
		Delay:          delay,
		Registry:       reg,
		RequestTimeout: reqTimeout,
		DrainTimeout:   drain,
	})
	if err != nil {
		return err
	}

	// Bind before announcing anything, and on the pprof side too: a banner
	// must never precede the listener it describes.
	if pprofAddr != "" {
		pa, err := service.StartPprof(pprofAddr, func(err error) {
			fmt.Fprintf(os.Stderr, "flatd: pprof server: %v\n", err)
		})
		if err != nil {
			return fmt.Errorf("pprof listen on %s: %w", pprofAddr, err)
		}
		fmt.Fprintf(os.Stderr, "flatd: pprof at http://%s/debug/pprof/\n", pa)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("listen on %s: %w", addr, err)
	}
	fmt.Fprintf(os.Stderr, "flatd: serving %s (mode %s, k=%d) on http://%s\n",
		topoName, m, k, ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := srv.Run(ctx, ln); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "flatd: shut down cleanly")
	return nil
}
