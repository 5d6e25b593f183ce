package main

import (
	"encoding/json"
	"io"
	"runtime"
	"runtime/debug"

	"flattree/internal/parallel"
)

// manifestMetric and manifest mirror BENCHMARK.json.
type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []workloadDef    `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: 20,
		Workloads:  workloads,
	}
	for _, d := range endToEnd {
		b := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &b})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return m
}

func writeManifest(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(buildManifest())
}

// provenance records what produced a run's numbers.
func provenance(seed int64) map[string]interface{} {
	p := map[string]interface{}{
		"seed":          seed,
		"held_out_seed": heldOutSeed,
		"pinned_seed":   defaultSeed,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"pool_workers":  parallel.DefaultWorkers(),
		"procs_per_run": procsPerRun,
		"go_version":    runtime.Version(),
		"vcs_revision":  "none",
		"vcs_modified":  "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p["vcs_revision"] = s.Value
			case "vcs.modified":
				p["vcs_modified"] = s.Value
			}
		}
	}
	return p
}
