// Command perfbench is the repository's benchmark. From the repository
// root:
//
//	bash perfbench/run.sh --workload fct_batch --seed 1 --seconds 20 --trace 0
//
// run.sh builds this module (which imports the repository's packages
// through a replace directive) into .bench_build/ and runs it. One run
// starts five fresh processes of the workload, each with GOMAXPROCS and
// the worker pool pinned to min(2, nproc), and prints a report followed by
// one JSON result line:
//
//	{"correct": true, "attempted": 72, "failed": 0, "metrics": {...}}
//
// # Workloads
//
// fct_batch, fbmix_stream and churn_replay mirror experiments.Config's
// Fig8With, FBMix and Churn through the packages' public entry points (the
// equivalence tests hold them to the experiments' outputs); flatd_live
// drives an in-process flatd over loopback HTTP. See catalog.go for why
// each was chosen and each workload's file for its set-up and timed work.
//
// # End-to-end metrics (--trace 0)
//
// Every workload prints the same three:
//
//   - setup_s: process start to ready, the median over the run's five
//     processes;
//   - run_s: wall time of one timed pass, the median over the run's
//     passes; for flatd_live, one repetition of the closed-loop route
//     capacity phase; for churn_replay, whose five processes each replay
//     their own slice of the run's seed list, the sum of the slices;
//   - max_rss_mb: peak resident memory of a process that ran all of the
//     workload's timed work (every process of a batch workload; the first
//     of flatd_live, whose others run only its capacity phase), the median
//     over those processes.
//
// The error rate is failed ÷ attempted of the result line. flatd_live also
// prints its client-side figures (route, link-event and quote latency
// percentiles with their sample counts, route capacity, generator
// lateness) on "client" lines.
//
// # Per-layer metrics (--trace 1)
//
// A traced run records the benchmark's own spans (name, start, end,
// parent, request id) around each call into internal/experiments, core,
// topo, routing, traffic, flowsim, churn and service, keeps them in memory,
// and writes them to .bench_build/spans/ when each process ends. Per-layer
// metrics are span totals, counts and self times; each names in catalog.go
// the end-to-end metric and workload it should move. After an untimed
// warm-up pass, traced and untraced passes alternate in one process, which
// gives bench.trace_overhead_pct.
//
// # Correctness
//
// Every operation (a simulation, a compile, a request) is checked: errors,
// non-200 statuses, timeouts and broken invariants fail it, and at the
// default seed so does a digest that differs from pins.json. perfbench -pin
// -workload <name>, run in this directory, regenerates that file;
// perfbench -manifest regenerates BENCHMARK.json from the catalog.
//
// Seed 1 is the default and pinned seed; seed 7 is held out for confirming
// claims.
package main
