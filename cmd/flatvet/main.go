// Command flatvet runs the repo's determinism, seeding, telemetry,
// context-threading, error and hot-path analyzers, and the whole-tree
// testonly check, over a package tree.
//
// Usage:
//
//	go run ./cmd/flatvet ./...
//	go run ./cmd/flatvet -C some/module ./...
//	go run ./cmd/flatvet -pkgs service,flowsim -sarif out.sarif ./...
//
// The suite (see internal/analysis/suite) checks:
//
//	maporder    range-over-map in deterministic packages
//	floatsum    float accumulation in map-range bodies (unwaivable)
//	seededrand  global math/rand or wall-clock-seeded sources
//	simclock    time.Now/Since/Until in simulated-time packages
//	spanend     telemetry spans that never reach End
//	ctxflow     context threading on daemon request paths
//	errdrop     discarded error returns in simulation/control packages
//	hotalloc    allocation in //flatvet:hotpath-marked functions
//	testonly    exported internal/ functions and methods only tests reference
//
// plus the //flatvet:<rule> <reason> waiver-directive syntax itself.
// testonly counts references from the whole module at -C, and from any
// nested module that replaces it with a local path, whatever packages
// are named.
// -pkgs restricts reporting to the named final import-path segments;
// -sarif additionally writes the findings (even when there are none)
// as a SARIF 2.1.0 log for CI code-scanning upload; -workers bounds
// the parallel package loading and type-checking fan-out.
// Exit status: 0 clean, 1 diagnostics reported, 2 the tree could not
// be loaded or type-checked.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"flattree/internal/analysis/sarif"
	"flattree/internal/analysis/suite"
	"flattree/internal/analysis/testonly"
	"flattree/internal/parallel"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("flatvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("C", ".", "change to `dir` before loading packages")
	sarifPath := fs.String("sarif", "", "also write findings as SARIF 2.1.0 to `file` (\"-\" for stdout)")
	pkgsFlag := fs.String("pkgs", "", "report only packages whose final import-path segment is in this comma-separated `list`")
	workers := fs.Int("workers", 0, "parallel load/type-check workers (0 = GOMAXPROCS)")
	fs.Usage = func() {
		var names []string
		for _, a := range suite.Analyzers() {
			names = append(names, a.Name)
		}
		names = append(names, testonly.Rule)
		fmt.Fprintf(stderr, "usage: flatvet [-C dir] [-pkgs list] [-sarif file] [-workers n] [packages]\n\nAnalyzers: %s\nWaive with //flatvet:<rule> <reason> on or above the flagged line (rules: %s).\n",
			strings.Join(names, " "), strings.Join(suite.KnownRules(), ", "))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := parallel.CheckWorkers(*workers); err != nil {
		fmt.Fprintf(stderr, "flatvet: %v\n", err)
		return 2
	}
	if *workers > 0 {
		parallel.SetDefaultWorkers(*workers)
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	abs, err := filepath.Abs(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "flatvet: %v\n", err)
		return 2
	}
	var opts suite.Options
	if *pkgsFlag != "" {
		for _, p := range strings.Split(*pkgsFlag, ",") {
			if p = strings.TrimSpace(p); p != "" {
				opts.Only = append(opts.Only, p)
			}
		}
	}
	diags, err := suite.RunOpts(abs, opts, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "flatvet: %v\n", err)
		return 2
	}
	if *sarifPath != "" {
		if err := writeSARIF(*sarifPath, stdout, abs, diags); err != nil {
			fmt.Fprintf(stderr, "flatvet: %v\n", err)
			return 2
		}
	}
	if len(diags) == 0 {
		return 0
	}
	suite.Format(stdout, abs, diags)
	return 1
}

// writeSARIF encodes diags and writes them to path ("-" = stdout). A
// clean run still writes a log: CI uploads the artifact
// unconditionally, and an empty results array is the signal that the
// tree is clean rather than unscanned.
func writeSARIF(path string, stdout io.Writer, base string, diags []suite.Diag) error {
	data, err := sarif.Encode(suite.ToSARIF(base, diags))
	if err != nil {
		return err
	}
	if path == "-" {
		_, err = stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
