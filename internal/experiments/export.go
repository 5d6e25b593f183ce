package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// CSV export for the figure-shaped experiments: each series becomes one
// file of plot-ready points, so the paper's figures can be regenerated
// with any plotting tool.

// WriteCSV writes one file per (workload, network) series with the FCT CDF
// points: "fct_ms,cdf" rows — the axes of Figure 8.
func (r *Fig8Result) WriteCSV(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, s := range r.Series {
		name := fmt.Sprintf("fig8_%s_%s.csv", slug(s.Workload), slug(s.Network.String()))
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := writeCDF(f, s); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func writeCDF(w io.Writer, s Fig8Series) error {
	if _, err := fmt.Fprintln(w, "fct_ms,cdf"); err != nil {
		return err
	}
	n := len(s.CDF.X)
	for i, x := range s.CDF.X {
		if _, err := fmt.Fprintf(w, "%g,%g\n", x, float64(i+1)/float64(n)); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV writes the Figure 10 time series: "t_s,core_bandwidth_gbps".
func (r *Fig10Result) WriteCSV(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "fig10_core_bandwidth.csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := fmt.Fprintln(f, "t_s,core_bandwidth_gbps"); err != nil {
		return err
	}
	for _, s := range r.Samples {
		if _, err := fmt.Fprintf(f, "%g,%g\n", s.T, s.CoreBandwidth); err != nil {
			return err
		}
	}
	return f.Close()
}

func slug(s string) string {
	s = strings.ToLower(s)
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	return strings.Trim(b.String(), "-")
}

// RunWithCSV runs an experiment and, for the figure-shaped ones, also
// writes CSV series into dir. Experiments without series data run
// normally.
func RunWithCSV(name string, cfg Config, dir string) (Result, error) {
	switch name {
	case "fig8":
		return traced(name, cfg, withCSV(Config.Fig8, dir))
	case "fig10":
		return traced(name, cfg, withCSV(Config.Fig10, dir))
	}
	return Run(name, cfg)
}

// withCSV adapts a figure's runner to render its table and write its
// series into dir.
func withCSV[R interface {
	Render() string
	WriteCSV(dir string) error
}](run func(Config) (R, error), dir string) func(Config) (string, error) {
	return func(c Config) (string, error) {
		r, err := run(c)
		if err != nil {
			return "", err
		}
		return r.Render(), r.WriteCSV(dir)
	}
}
