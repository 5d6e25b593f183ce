package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain runs flatd's main instead of the tests when the environment
// asks for it, so a test can start the daemon as a child process with
// the newline-separated arguments in FLATD_TEST_ARGS.
func TestMain(m *testing.M) {
	if os.Getenv("FLATD_TEST_MAIN") == "1" {
		os.Args = append([]string{"flatd"}, strings.Split(os.Getenv("FLATD_TEST_ARGS"), "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestStartupRejectsBadFlags starts flatd with each negative value a
// flag used to turn into a silent default (-workers into GOMAXPROCS,
// -span-limit into an unbounded history, the two timeouts into 10 s and
// 15 s), and a NaN -detection: each must exit 1 at start-up with its
// exact error instead of serving. A child that serves is killed at the
// deadline and fails the case.
func TestStartupRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		stderr string
	}{
		{[]string{"-workers", "-3"}, "flatd: -workers -3 (want >= 0; 0 = GOMAXPROCS)\n"},
		{[]string{"-span-limit", "-1"}, "flatd: -span-limit -1 (want >= 0; 0 = unbounded)\n"},
		{[]string{"-request-timeout", "-1s"}, "flatd: service: Config.RequestTimeout -1s (want >= 0; zero uses the default)\n"},
		{[]string{"-drain-timeout", "-2s"}, "flatd: service: Config.DrainTimeout -2s (want >= 0; zero uses the default)\n"},
		{[]string{"-detection", "NaN"}, "flatd: service: Config.Detection NaN (want finite >= 0; zero uses the default)\n"},
	} {
		t.Run(tc.args[0], func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			args := append([]string{"-addr", "127.0.0.1:0"}, tc.args...)
			cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^$")
			cmd.Env = append(os.Environ(), "FLATD_TEST_MAIN=1", "FLATD_TEST_ARGS="+strings.Join(args, "\n"))
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("flatd %v: %v, want exit status 1; stderr:\n%s", args, err, stderr.String())
			}
			if stderr.String() != tc.stderr {
				t.Fatalf("flatd %v stderr = %q, want %q", args, stderr.String(), tc.stderr)
			}
		})
	}
}

// TestCheckFlagsZeroKeepsMeaning checks that zero stays a documented
// value rather than an error: -workers 0 is GOMAXPROCS and -span-limit 0
// an unbounded history.
func TestCheckFlagsZeroKeepsMeaning(t *testing.T) {
	if err := checkFlags(0, 0); err != nil {
		t.Fatalf("checkFlags(0, 0) = %v, want nil", err)
	}
}
