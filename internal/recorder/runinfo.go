package recorder

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"

	"flattree/internal/telemetry"
)

// RunInfo is a run's provenance manifest: everything needed to decide
// whether two recorded runs are comparable — the seed, the worker
// count, the toolchain, the source revision, the full flag set, the
// recorder's per-track totals, run annotations (topology fingerprints),
// and a digest of the telemetry counters. The manifest is itself
// deterministic for a fixed seed and toolchain, so runinfo files diff
// cleanly alongside journals.
type RunInfo struct {
	Tool      string `json:"tool"`
	GoVersion string `json:"go_version"`
	GitRev    string `json:"git_rev"`
	Seed      int64  `json:"seed"`
	Workers   int    `json:"workers"`
	// Flags is the complete flag set of the run (including defaults),
	// the exact knob state needed to reproduce it.
	Flags map[string]string `json:"flags,omitempty"`
	// Annotations carries Recorder.Annotate entries — topology
	// fingerprints and other identity the experiments registered.
	Annotations map[string]string `json:"annotations,omitempty"`
	// RecordLimit is the per-track ring capacity (0 when recording was
	// disabled).
	RecordLimit int `json:"record_limit,omitempty"`
	// Tracks reports each track's retained/dropped/total event counts.
	Tracks map[string]TrackStats `json:"tracks,omitempty"`
	// CounterDigest is a SHA-256 over the sorted telemetry counters —
	// a cheap equality check between runs that skips comparing full
	// snapshots.
	CounterDigest string `json:"counter_digest"`
}

// TrackStats summarizes one track for the manifest.
type TrackStats struct {
	Events  int    `json:"events"`
	Dropped uint64 `json:"dropped"`
	Total   uint64 `json:"total"`
}

// CollectRunInfo assembles the manifest from the run's configuration,
// the recorder (nil when recording is disabled), and the telemetry
// snapshot (nil when telemetry is disabled).
func CollectRunInfo(tool string, seed int64, workers int, flags map[string]string, r *Recorder, snap *telemetry.Snapshot) RunInfo {
	ri := RunInfo{
		Tool:          tool,
		GoVersion:     runtime.Version(),
		GitRev:        gitRev(),
		Seed:          seed,
		Workers:       workers,
		Flags:         flags,
		Annotations:   r.Annotations(),
		RecordLimit:   r.Limit(),
		CounterDigest: CounterDigest(snap),
	}
	if tracks := r.Snapshot(); len(tracks) > 0 {
		ri.Tracks = make(map[string]TrackStats, len(tracks))
		for _, ts := range tracks {
			ri.Tracks[ts.Name] = TrackStats{Events: len(ts.Events), Dropped: ts.Dropped(), Total: ts.Total}
		}
	}
	return ri
}

// WriteRecord writes a run's artifacts for tool (the binary's name). With
// base set, the flight-recorder trace, the journal and the provenance
// manifest land at <base>.trace.json, <base>.jsonl and
// <base>.runinfo.json; otherwise only the manifest is written, to
// runinfoDst ("-" for stdout, empty disables). The manifest records the
// process's command-line flags.
func WriteRecord(tool string, r *Recorder, snap *telemetry.Snapshot, base, runinfoDst string, seed int64, workers int) error {
	if base != "" {
		if err := WriteFile(base+".trace.json", func(w io.Writer) error { return WriteTrace(w, r, snap) }); err != nil {
			return fmt.Errorf("trace export: %w", err)
		}
		if err := WriteFile(base+".jsonl", func(w io.Writer) error { return WriteJournal(w, r) }); err != nil {
			return fmt.Errorf("journal export: %w", err)
		}
		runinfoDst = base + ".runinfo.json"
	}
	if runinfoDst == "" {
		return nil
	}
	ri := CollectRunInfo(tool, seed, workers, FlagMap(flag.CommandLine), r, snap)
	if err := WriteFile(runinfoDst, ri.WriteJSON); err != nil {
		return fmt.Errorf("runinfo manifest: %w", err)
	}
	return nil
}

// WriteFile creates dst and fills it with write; "-" writes to stdout.
func WriteFile(dst string, write func(w io.Writer) error) error {
	if dst == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(dst)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteJSON renders the manifest as indented JSON; map keys are sorted
// by the encoder, so the output is deterministic.
func (ri RunInfo) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ri)
}

// FlagMap captures a flag set's complete state — every flag with its
// current value, defaults included — as the manifest's Flags field.
func FlagMap(fs *flag.FlagSet) map[string]string {
	out := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) {
		out[f.Name] = f.Value.String()
	})
	return out
}

// CounterDigest hashes the snapshot's counters as sorted "name value"
// lines. Two runs with equal digests executed the same event volume;
// an empty or nil snapshot yields the digest of zero counters.
func CounterDigest(snap *telemetry.Snapshot) string {
	h := sha256.New()
	if snap != nil {
		keys := make([]string, 0, len(snap.Counters))
		//flatvet:ordered keys are collected then sorted
		for k := range snap.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(h, "%s %d\n", k, snap.Counters[k])
		}
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}

// gitRev reads the VCS revision stamped into the build, with a ".dirty"
// suffix when the working tree was modified; "unknown" when the binary
// carries no VCS info (go test binaries, plain `go run` without VCS).
func gitRev() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		return rev + ".dirty"
	}
	return rev
}
