// Package metrics provides the statistics and rendering helpers the
// experiment harness uses: percentiles, CDFs, box-plot summaries matching
// Figure 7's definition, normalization, and plain-text tables.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Percentile returns the p-quantile (0..1) of xs by linear interpolation.
// It copies and sorts the input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Mean returns the arithmetic mean, NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// BoxPlot summarizes a sample the way Figure 7 draws it: quartiles, median,
// mean, and whiskers covering data within 3 box-heights of the box;
// anything beyond is an outlier.
type BoxPlot struct {
	P25, Median, P75     float64
	Mean                 float64
	WhiskerLo, WhiskerHi float64
	Outliers             int
	N                    int
}

// NewBoxPlot computes the Figure 7 box-plot summary.
func NewBoxPlot(xs []float64) BoxPlot {
	b := BoxPlot{
		P25:    Percentile(xs, 0.25),
		Median: Percentile(xs, 0.50),
		P75:    Percentile(xs, 0.75),
		Mean:   Mean(xs),
		N:      len(xs),
	}
	boxRange := b.P75 - b.P25
	lo := b.P25 - 3*boxRange
	hi := b.P75 + 3*boxRange
	b.WhiskerLo, b.WhiskerHi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		if x < lo || x > hi {
			b.Outliers++
			continue
		}
		if x < b.WhiskerLo {
			b.WhiskerLo = x
		}
		if x > b.WhiskerHi {
			b.WhiskerHi = x
		}
	}
	if b.N == 0 {
		b.WhiskerLo, b.WhiskerHi = math.NaN(), math.NaN()
	}
	return b
}

// CDF is an empirical distribution: sorted values with cumulative
// probability positions.
type CDF struct {
	X []float64 // sorted sample
}

// NewCDF builds the empirical CDF of xs.
func NewCDF(xs []float64) CDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return CDF{X: s}
}

// Table renders rows as an aligned plain-text table with a header.
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends a row, formatting each cell with %v.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(widths) {
				sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	var rule []string
	for _, w := range widths {
		rule = append(rule, strings.Repeat("-", w))
	}
	writeRow(rule)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return sb.String()
}
