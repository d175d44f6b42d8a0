// Package stats provides derived rates, data series and table formatting
// used by the simulator and the experiment harness.
package stats

import (
	"fmt"
	"sort"
	"strings"
)

// Ratio returns a/b as a float, or 0 when b is 0.
func Ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Pct returns 100*a/b, or 0 when b is 0.
func Pct(a, b uint64) float64 { return 100 * Ratio(a, b) }

// Table is a simple fixed-column text table used to print experiment results
// in the same layout as the paper's figures.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends one row; cells beyond len(Columns) are dropped, missing
// cells render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := len(t.Columns) - 1
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Series is a named list of (label, value) pairs, used to compare a measured
// data series against the series read off a paper figure.
//
// A Series is immutable by convention once constructed: Relabel shares the
// underlying label/value slices, and the experiment layer's worker pool
// reads package-level paper series from many goroutines concurrently. All
// methods are read-only and safe for concurrent use; callers must not
// mutate Labels or Values after construction.
type Series struct {
	Name   string
	Labels []string
	Values []float64
}

// NewSeries builds a series; labels and values must have equal length.
func NewSeries(name string, labels []string, values []float64) Series {
	if len(labels) != len(values) {
		panic(fmt.Sprintf("stats: series %q: %d labels but %d values", name, len(labels), len(values)))
	}
	return Series{Name: name, Labels: labels, Values: values}
}

// Relabel returns a copy of the series with a new name.
func (s Series) Relabel(name string) Series {
	return Series{Name: name, Labels: s.Labels, Values: s.Values}
}

// Mean returns the arithmetic mean of the series values (0 for empty).
func (s Series) Mean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}

// Value returns the value for a label and whether it exists.
func (s Series) Value(label string) (float64, bool) {
	for i, l := range s.Labels {
		if l == label {
			return s.Values[i], true
		}
	}
	return 0, false
}

// SpearmanRank computes the Spearman rank correlation between two series that
// share labels. It quantifies how well the measured ordering matches the
// paper's ordering. Returns 0 if fewer than two shared labels exist.
func SpearmanRank(a, b Series) float64 {
	type pair struct{ ra, rb float64 }
	ranks := func(s Series) map[string]float64 {
		idx := make([]int, len(s.Labels))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(x, y int) bool { return s.Values[idx[x]] < s.Values[idx[y]] })
		m := make(map[string]float64, len(idx))
		for r, j := range idx {
			m[s.Labels[j]] = float64(r)
		}
		return m
	}
	ra, rb := ranks(a), ranks(b)
	var pairs []pair
	for l, r := range ra { //secsim:nondet order-independent reduction: only the sum of rank differences is used
		if r2, ok := rb[l]; ok {
			pairs = append(pairs, pair{r, r2})
		}
	}
	n := float64(len(pairs))
	if n < 2 {
		return 0
	}
	var sumd2 float64
	for _, p := range pairs {
		d := p.ra - p.rb
		sumd2 += d * d
	}
	return 1 - 6*sumd2/(n*(n*n-1))
}
