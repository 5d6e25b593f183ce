package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"flattree/internal/experiments"
	"flattree/internal/parallel"
	"flattree/internal/telemetry"
)

// TestMain runs benchtables' main instead of the tests when the
// environment asks for it, so a test can start benchtables as a child
// process with the newline-separated arguments in BENCHTABLES_TEST_ARGS.
func TestMain(m *testing.M) {
	if os.Getenv("BENCHTABLES_TEST_MAIN") == "1" {
		os.Args = append([]string{"benchtables"}, strings.Split(os.Getenv("BENCHTABLES_TEST_ARGS"), "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestNegativeWorkersRejected starts benchtables with -workers -3, which
// used to run the whole suite on GOMAXPROCS workers while the provenance
// manifest recorded -3: it must exit 2 with the exact error before
// running anything. A child that starts the suite is killed at the
// deadline and fails the test.
func TestNegativeWorkersRejected(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	runinfo := filepath.Join(t.TempDir(), "ri.json")
	args := []string{"-workers", "-3", "-runinfo", runinfo}
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "BENCHTABLES_TEST_MAIN=1", "BENCHTABLES_TEST_ARGS="+strings.Join(args, "\n"))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("benchtables %v: %v, want exit status 2; stderr:\n%s", args, err, stderr.String())
	}
	if want := "benchtables: -workers -3 (want >= 0; 0 = GOMAXPROCS)\n"; stderr.String() != want {
		t.Fatalf("benchtables %v stderr = %q, want %q", args, stderr.String(), want)
	}
	if stdout.Len() != 0 {
		t.Fatalf("benchtables %v ran experiments:\n%s", args, stdout.String())
	}
	if _, err := os.Stat(runinfo); !os.IsNotExist(err) {
		t.Fatalf("benchtables %v wrote a provenance manifest (stat: %v)", args, err)
	}
}

// TestBadFlagsRejected starts benchtables with each flag value that used to
// run silently as something else — an ε of NaN or 5 printed NaN tables,
// a negative or zero ε ran at mcf's default 0.1, and a negative
// -fbmix-flows or -record-limit became its default — and requires exit
// status 2 with the exact error before any experiment runs or the
// provenance manifest is written.
func TestBadFlagsRejected(t *testing.T) {
	for _, tc := range []struct {
		flag, value, want string
	}{
		{"-epsilon", "NaN", "benchtables: -epsilon NaN (want > 0 and < 1)\n"},
		{"-epsilon", "-1", "benchtables: -epsilon -1 (want > 0 and < 1)\n"},
		{"-epsilon", "0", "benchtables: -epsilon 0 (want > 0 and < 1)\n"},
		{"-epsilon", "5", "benchtables: -epsilon 5 (want > 0 and < 1)\n"},
		{"-fbmix-flows", "-5", "benchtables: -fbmix-flows -5 (want >= 0; 0 = scale default)\n"},
		{"-record-limit", "-1", "benchtables: -record-limit -1 (want >= 0; 0 = recorder default)\n"},
	} {
		t.Run(tc.flag+"="+tc.value, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			runinfo := filepath.Join(t.TempDir(), "ri.json")
			args := []string{tc.flag, tc.value, "-runinfo", runinfo}
			cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^$")
			cmd.Env = append(os.Environ(), "BENCHTABLES_TEST_MAIN=1", "BENCHTABLES_TEST_ARGS="+strings.Join(args, "\n"))
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("benchtables %v: %v, want exit status 2; stderr:\n%s", args, err, stderr.String())
			}
			if stderr.String() != tc.want {
				t.Fatalf("benchtables %v stderr = %q, want %q", args, stderr.String(), tc.want)
			}
			if stdout.Len() != 0 {
				t.Fatalf("benchtables %v ran experiments:\n%s", args, stdout.String())
			}
			if _, err := os.Stat(runinfo); !os.IsNotExist(err) {
				t.Fatalf("benchtables %v wrote a provenance manifest (stat: %v)", args, err)
			}
		})
	}
}

// TestSummarizeConversionsWorkerInvariant runs the experiments that
// convert the emulated testbed at one and at eight workers and requires
// summarize's per-experiment conversions column to match. Wall times
// depend on the machine and are left out.
func TestSummarizeConversionsWorkerInvariant(t *testing.T) {
	names := []string{"fig10", "table3", "fig11", "rules", "ablation-gradual", "ablation-packet", "ablation-packet-fct"}
	column := func(workers int) string {
		parallel.SetDefaultWorkers(workers)
		defer parallel.SetDefaultWorkers(0)
		reg := telemetry.Enable()
		defer telemetry.Disable()
		for _, oc := range experiments.RunAll(names, experiments.Config{Seed: 1, Epsilon: 0.25}) {
			if oc.Err != nil {
				t.Fatalf("workers=%d: %s: %v", workers, oc.Name, oc.Err)
			}
		}
		// The wall-time table follows its heading, a header row and a
		// rule row; each data row is experiment, wall time, conversions.
		table, _, _ := strings.Cut(summarize(reg.Snapshot(), names), "\n== telemetry: event counters ==")
		rows := strings.Split(strings.TrimSpace(table), "\n")[3:]
		var out strings.Builder
		for _, row := range rows {
			f := strings.Fields(row)
			fmt.Fprintf(&out, "%s %s\n", f[0], f[len(f)-1])
		}
		return out.String()
	}
	serial, wide := column(1), column(8)
	if serial != wide {
		t.Fatalf("conversions column differs:\n--- workers=1 ---\n%s--- workers=8 ---\n%s", serial, wide)
	}
	if got := strings.Count(serial, "\n"); got != len(names) {
		t.Fatalf("summary has %d experiment rows, want %d:\n%s", got, len(names), serial)
	}
}
