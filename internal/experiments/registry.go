package experiments

import (
	"fmt"
	"sort"

	"flattree/internal/core"
	"flattree/internal/cost"
	"flattree/internal/metrics"
	"flattree/internal/routing"
	"flattree/internal/telemetry"
	"flattree/internal/topo"
)

// Table2Result reports the constructed evaluation topologies with derived
// quantities and flat-tree augmentation, verifying each builds and
// validates.
type Table2Result struct {
	Rows []Table2Row
}

// Table2Row is one topology's construction report.
type Table2Row struct {
	Name               string
	EdgeSwitches       int
	AggSwitches        int
	CoreSwitches       int
	Servers            int
	ORAtEdge           float64
	N, M               int
	Converters         int
	GlobalAPL, ClosAPL float64
}

// Table2 builds every base topology at the configured scale, augments it
// with converters, and reports shape plus the average path length in Clos
// and global modes — the structural side of Table 2.
func (c Config) Table2() (*Table2Result, error) {
	res := &Table2Result{}
	for _, p := range c.baseParams() {
		nw, err := core.New(p, flatTreeOptions(p))
		if err != nil {
			return nil, err
		}
		nw.SetMode(core.ModeClos)
		rc := nw.Realize()
		if err := rc.Topo.Validate(); err != nil {
			return nil, fmt.Errorf("table2 %s clos: %w", p.Name, err)
		}
		closAPL := routing.BuildKShortest(rc.Topo, 1).AveragePathLength()
		nw.SetMode(core.ModeGlobal)
		rg := nw.Realize()
		if err := rg.Topo.Validate(); err != nil {
			return nil, fmt.Errorf("table2 %s global: %w", p.Name, err)
		}
		globalAPL := routing.BuildKShortest(rg.Topo, 1).AveragePathLength()
		opt := nw.Options()
		res.Rows = append(res.Rows, Table2Row{
			Name:         p.Name,
			EdgeSwitches: p.Pods * p.EdgesPerPod,
			AggSwitches:  p.Pods * p.AggsPerPod,
			CoreSwitches: p.Cores,
			Servers:      p.TotalServers(),
			ORAtEdge:     float64(p.ServersPerEdge) / float64(p.EdgeUplinks),
			N:            opt.N, M: opt.M,
			Converters: nw.NumConverters(),
			GlobalAPL:  globalAPL, ClosAPL: closAPL,
		})
	}
	return res, nil
}

// Render formats the construction report.
func (r *Table2Result) Render() string {
	t := &metrics.Table{Header: []string{
		"topology", "#ES", "#AS", "#CS", "#servers", "OR@ES", "n", "m",
		"#converters", "APL global", "APL clos",
	}}
	for _, row := range r.Rows {
		t.Add(row.Name, row.EdgeSwitches, row.AggSwitches, row.CoreSwitches,
			row.Servers, row.ORAtEdge, row.N, row.M, row.Converters,
			row.GlobalAPL, row.ClosAPL)
	}
	return t.String()
}

// Names lists the registered experiment identifiers.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// registry maps experiment IDs (DESIGN.md's per-experiment index) to
// runners.
var registry = map[string]func(Config) (string, error){
	"table1": func(c Config) (string, error) {
		r, err := c.Table1()
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"table2": func(c Config) (string, error) {
		r, err := c.Table2()
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"table3": func(c Config) (string, error) {
		rows, err := c.Table3()
		if err != nil {
			return "", err
		}
		return RenderTable3(rows), nil
	},
	"fig5": func(c Config) (string, error) { return c.Fig5() },
	"fig6": func(c Config) (string, error) {
		r, err := c.Fig6()
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"fig7": func(c Config) (string, error) {
		r, err := c.Fig7()
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"fig8": func(c Config) (string, error) {
		r, err := c.Fig8()
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"fig10": func(c Config) (string, error) {
		r, err := c.Fig10()
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"fig11": func(c Config) (string, error) {
		r, err := c.Fig11()
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"rules": func(c Config) (string, error) {
		r, err := c.Rules()
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"props": func(c Config) (string, error) {
		r, err := c.Props()
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"ablation-wiring": func(c Config) (string, error) {
		rows, err := c.AblationWiring()
		if err != nil {
			return "", err
		}
		return RenderAblationWiring(rows), nil
	},
	"ablation-profile": func(c Config) (string, error) {
		rows, err := c.AblationProfile()
		if err != nil {
			return "", err
		}
		return RenderAblationProfile(rows), nil
	},
	"ablation-sidewiring": func(c Config) (string, error) {
		rows, err := c.AblationSideWiring()
		if err != nil {
			return "", err
		}
		return RenderAblationSideWiring(rows), nil
	},
	"ablation-k": func(c Config) (string, error) {
		rows, err := c.AblationK()
		if err != nil {
			return "", err
		}
		return RenderAblationK(rows), nil
	},
	"ablation-failures": func(c Config) (string, error) {
		rows, err := c.AblationFailures()
		if err != nil {
			return "", err
		}
		return RenderAblationFailures(rows), nil
	},
	"churn": func(c Config) (string, error) {
		rows, err := c.Churn()
		if err != nil {
			return "", err
		}
		return RenderChurn(rows), nil
	},
	"fbmix_large": func(c Config) (string, error) {
		rows, err := c.FBMix()
		if err != nil {
			return "", err
		}
		return RenderFBMix(rows), nil
	},
	"cost": func(c Config) (string, error) {
		params := c.baseParams()
		return cost.Table(params, cost.DefaultModel(), func(p topo.ClosParams) (*core.Network, error) {
			return core.New(p, flatTreeOptions(p))
		})
	},
	"hybrid-placement": func(c Config) (string, error) {
		rows, err := c.HybridPlacement()
		if err != nil {
			return "", err
		}
		return RenderHybridPlacement(rows), nil
	},
	"ablation-packet-fct": func(c Config) (string, error) {
		rows, err := c.AblationPacketFCT()
		if err != nil {
			return "", err
		}
		return RenderAblationPacketFCT(rows), nil
	},
	"ablation-gradual": func(c Config) (string, error) {
		rows, err := c.AblationGradual()
		if err != nil {
			return "", err
		}
		return RenderAblationGradual(rows), nil
	},
	"ablation-packet": func(c Config) (string, error) {
		rows, err := c.AblationPacket()
		if err != nil {
			return "", err
		}
		return RenderAblationPacket(rows), nil
	},
}

// Run executes a registered experiment by ID inside its root telemetry
// span (see traced) and returns the rendered result.
func Run(name string, cfg Config) (Result, error) {
	f, ok := registry[name]
	if !ok {
		return Result{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	return traced(name, cfg, f)
}

// traced runs f as experiment name inside a root telemetry span named
// "experiment:<name>". The span rides in f's copy of cfg, so the
// experiment's conversion spans are its children whichever experiments
// run beside it.
func traced(name string, cfg Config, f func(Config) (string, error)) (Result, error) {
	sp := telemetry.StartRootSpan("experiment:"+name, telemetry.Str("id", name))
	defer sp.End()
	cfg.span = sp
	table, err := f(cfg)
	if err != nil {
		sp.SetAttr(telemetry.Str("error", err.Error()))
		return Result{}, err
	}
	return Result{Name: name, Table: table}, nil
}
