// Package stats holds the small reporting utilities the experiment
// harness uses: aligned text tables (the paper-artefact output format),
// numeric series and simple aggregates.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Table is an aligned text table with a title and a header row.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; cells are formatted with %v, and float64 cells
// with three decimals.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case float32:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	cols := len(t.headers)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(row []string) {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.headers)
	for _, r := range t.rows {
		measure(r)
	}

	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(row []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.headers)
	sep := make([]string, cols)
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// Series is a named sequence of float64 samples.
type Series struct {
	Name   string
	Values []float64
}

// Add appends a sample.
func (s *Series) Add(v float64) { s.Values = append(s.Values, v) }

// Min returns the smallest sample (+Inf for an empty series).
func (s *Series) Min() float64 {
	m := math.Inf(1)
	for _, v := range s.Values {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest sample (-Inf for an empty series).
func (s *Series) Max() float64 {
	m := math.Inf(-1)
	for _, v := range s.Values {
		if v > m {
			m = v
		}
	}
	return m
}

// GeoMean returns the geometric mean of the (all-positive) samples, the
// conventional aggregate for speedups; it panics on non-positive samples.
func (s *Series) GeoMean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	logSum := 0.0
	for _, v := range s.Values {
		if v <= 0 {
			panic("stats: GeoMean of non-positive sample")
		}
		logSum += math.Log(v)
	}
	return math.Exp(logSum / float64(len(s.Values)))
}

// Ratio formats a/b as a speedup string like "1.42x".
func Ratio(a, b float64) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2fx", a/b)
}
