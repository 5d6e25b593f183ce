package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"flattree/internal/analysis/sarif"
	"flattree/internal/analysis/suite"
)

// TestViolationsGolden runs the full suite over the deliberately broken
// testdata/violations module and asserts the exact diagnostic
// positions and messages for every analyzer plus the directive
// checks — this is the test that proves CI goes red on a seeded
// violation.
func TestViolationsGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", filepath.Join("testdata", "violations"), "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "violations.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stdout.String(), string(golden); got != want {
		t.Errorf("diagnostics differ from golden file\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// The golden file must exercise every analyzer and both directive
	// checks; guard against the testdata rotting into partial coverage.
	for _, analyzer := range []string{
		"maporder", "floatsum", "seededrand", "simclock", "spanend",
		"ctxflow", "errdrop", "hotalloc", "testonly", "flatvet",
	} {
		if !strings.Contains(string(golden), ": "+analyzer+": ") {
			t.Errorf("golden file has no %s diagnostic", analyzer)
		}
	}
}

// decodeSARIF parses a -sarif file as one SARIF 2.1.0 log.
func decodeSARIF(t *testing.T, data []byte) sarif.Log {
	t.Helper()
	var log sarif.Log
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("decoding -sarif output: %v", err)
	}
	if log.Version != sarif.Version || len(log.Runs) != 1 {
		t.Fatalf("-sarif output has version %q and %d runs, want %q and 1", log.Version, len(log.Runs), sarif.Version)
	}
	return log
}

// TestSARIFRoundTrip runs the violations module with -sarif and pins
// the CI-artifact contract: the file decodes, re-encodes to the same
// bytes, and carries one result per text diagnostic.
func TestSARIFRoundTrip(t *testing.T) {
	out := filepath.Join(t.TempDir(), "flatvet.sarif")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", filepath.Join("testdata", "violations"), "-sarif", out, "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	log := decodeSARIF(t, data)
	enc, err := sarif.Encode(log)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, enc) {
		t.Errorf("-sarif output does not round-trip byte-identically:\nfile:     %q\nreencode: %q", data, enc)
	}
	textLines := strings.Count(stdout.String(), "\n")
	if got := len(log.Runs[0].Results); got != textLines {
		t.Errorf("SARIF has %d results, text output has %d diagnostics", got, textLines)
	}
	if got, want := len(log.Runs[0].Tool.Driver.Rules), len(suite.Analyzers())+2; got != want {
		t.Errorf("SARIF driver declares %d rules, want %d (analyzers + testonly + directive syntax)", got, want)
	}
}

// TestSARIFCleanRun asserts a clean tree still writes a SARIF log —
// the empty results array is CI's signal that the tree was scanned.
func TestSARIFCleanRun(t *testing.T) {
	out := filepath.Join(t.TempDir(), "flatvet.sarif")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", filepath.Join("testdata", "clean"), "-sarif", out, "./..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	log := decodeSARIF(t, data)
	if len(log.Runs[0].Results) != 0 {
		t.Errorf("clean run produced SARIF results: %+v", log.Runs[0].Results)
	}
}

// TestPkgsFilter asserts -pkgs narrows reporting to the named
// final-segment packages.
func TestPkgsFilter(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", filepath.Join("testdata", "violations"), "-pkgs", "churn", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		if !strings.HasPrefix(line, "churn/") {
			t.Errorf("-pkgs churn reported a non-churn diagnostic: %s", line)
		}
	}
	if !strings.Contains(stdout.String(), "errdrop") {
		t.Errorf("-pkgs churn lost the errdrop findings:\n%s", stdout.String())
	}
}

// TestCleanExitsZero asserts the 0 exit on a violation-free module.
func TestCleanExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", filepath.Join("testdata", "clean"), "./..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean run produced output: %s", stdout.String())
	}
}

// TestBadDirExitsTwo asserts the load-failure exit code.
func TestBadDirExitsTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", "testdata", "./does/not/exist"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

// TestRunRejectsBadFlags checks the flag errors run reports before
// loading anything: each exits 2 with its exact message. A negative
// -workers used to be skipped, so the analysis ran on GOMAXPROCS
// workers.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		stderr string
	}{
		{[]string{"-workers", "-3"}, "flatvet: -workers -3 (want >= 0; 0 = GOMAXPROCS)\n"},
	} {
		t.Run(tc.args[0], func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := append([]string{"-C", filepath.Join("testdata", "clean")}, tc.args...)
			code := run(append(args, "./..."), &stdout, &stderr)
			if code != 2 || stderr.String() != tc.stderr || stdout.Len() != 0 {
				t.Fatalf("flatvet %v = exit %d, stderr %q, stdout %q; want exit 2, stderr %q, no stdout",
					args, code, stderr.String(), stdout.String(), tc.stderr)
			}
		})
	}
}

// TestWholeTreeClean runs the suite over this repository itself: the
// tree must stay flatvet-clean, with every surviving map range either
// rewritten to sorted keys or carrying a reasoned waiver.
func TestWholeTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-tree analysis in -short mode")
	}
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("runtime.Caller failed")
	}
	root := filepath.Dir(filepath.Dir(filepath.Dir(file)))
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", root, "./..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("flatvet ./... = exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
}

// TestTestonlyNarrowPattern asserts that testonly counts references from
// the whole module, and from nested modules that replace it, even when
// the patterns load one package: graph.Used and graph.BenchOnly have
// callers only outside ./internal/graph and stay unreported.
func TestTestonlyNarrowPattern(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", filepath.Join("testdata", "violations"), "./internal/graph"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "violations.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, line := range strings.SplitAfter(string(golden), "\n") {
		if strings.HasPrefix(line, "internal/graph/") {
			want.WriteString(line)
		}
	}
	if got := stdout.String(); got != want.String() {
		t.Errorf("diagnostics for ./internal/graph differ from the golden's lines\n--- got ---\n%s--- want ---\n%s", got, want.String())
	}
}
