package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := Percentile(xs, 0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := Percentile(xs, 1); got != 4 {
		t.Fatalf("p100 = %v", got)
	}
	if got := Percentile(xs, 0.5); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Fatal("empty percentile not NaN")
	}
	// Input must not be mutated.
	if xs[0] != 4 {
		t.Fatal("Percentile mutated input")
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{2, 8, 5}); got != 5 {
		t.Fatalf("mean = %v, want 5", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("mean of nothing not NaN")
	}
}

func TestBoxPlot(t *testing.T) {
	// Uniform 1..100 plus one extreme outlier.
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	xs = append(xs, 1e6)
	b := NewBoxPlot(xs)
	if b.P25 >= b.Median || b.Median >= b.P75 {
		t.Fatalf("quartiles out of order: %+v", b)
	}
	if b.Outliers != 1 {
		t.Fatalf("outliers = %d, want 1", b.Outliers)
	}
	if b.WhiskerHi > 1000 {
		t.Fatalf("whisker includes the outlier: %v", b.WhiskerHi)
	}
	if b.N != 101 {
		t.Fatalf("N = %d", b.N)
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{4, 1, 3, 2})
	if got := c.Quantile(0); got != 1 {
		t.Fatalf("Quantile(0) = %v", got)
	}
	if got := c.Quantile(1); got != 4 {
		t.Fatalf("Quantile(1) = %v", got)
	}
	for i := 1; i <= 4; i++ {
		if p := float64(i) / 4; c.Quantile(p) < c.Quantile(p-0.25) {
			t.Fatal("CDF quantiles not monotone")
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Header: []string{"name", "value"}}
	tb.Add("alpha", 1.5)
	tb.Add("b", 100)
	s := tb.String()
	if !strings.Contains(s, "alpha") || !strings.Contains(s, "1.5") || !strings.Contains(s, "100") {
		t.Fatalf("table missing cells:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4", len(lines))
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestPercentileProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		ps := []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1}
		var prev = math.Inf(-1)
		for _, p := range ps {
			q := Percentile(xs, p)
			if q < prev-1e-9 {
				return false
			}
			prev = q
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return Percentile(xs, 0) == sorted[0] && Percentile(xs, 1) == sorted[len(sorted)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Quantile returns the value at cumulative probability p.
func (c CDF) Quantile(p float64) float64 { return Percentile(c.X, p) }
