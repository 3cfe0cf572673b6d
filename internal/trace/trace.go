// Package trace renders experiment results: aligned text tables for
// the paper's table-shaped artifacts and ASCII series plots for its
// figure-shaped ones. The experiment driver (cmd/wsim) and the
// benchmark harness print through it so EXPERIMENTS.md entries can be
// regenerated verbatim.
package trace

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a titled grid of cells.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; cells are rendered with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// Fprint writes the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", pad))
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// Series is a named sequence of (x, y) points — a figure.
type Series struct {
	Title  string
	XLabel string
	YLabel string
	Lines  []Line
}

// Line is one curve within a Series.
type Line struct {
	Name string
	X, Y []float64
}

// NewSeries creates a figure with axis labels.
func NewSeries(title, xlabel, ylabel string) *Series {
	return &Series{Title: title, XLabel: xlabel, YLabel: ylabel}
}

// Add appends a point to the named line, creating it on first use.
func (s *Series) Add(name string, x, y float64) {
	for i := range s.Lines {
		if s.Lines[i].Name == name {
			s.Lines[i].X = append(s.Lines[i].X, x)
			s.Lines[i].Y = append(s.Lines[i].Y, y)
			return
		}
	}
	s.Lines = append(s.Lines, Line{Name: name, X: []float64{x}, Y: []float64{y}})
}

// Fprint writes the series as a data table followed by a coarse ASCII
// plot (y rescaled per line set, x taken from the first line).
func (s *Series) Fprint(w io.Writer) {
	t := NewTable(s.Title, append([]string{s.XLabel}, lineNames(s.Lines)...)...)
	if len(s.Lines) > 0 {
		for i, x := range s.Lines[0].X {
			row := []any{formatFloat(x)}
			for _, l := range s.Lines {
				if i < len(l.Y) {
					row = append(row, l.Y[i])
				} else {
					row = append(row, "")
				}
			}
			t.AddRow(row...)
		}
	}
	t.Fprint(w)
	s.plot(w)
}

func lineNames(lines []Line) []string {
	out := make([]string, len(lines))
	for i, l := range lines {
		out[i] = l.Name
	}
	return out
}

// plot draws each line as a row of scaled bars, one row per x value.
func (s *Series) plot(w io.Writer) {
	maxY := 0.0
	for _, l := range s.Lines {
		for _, y := range l.Y {
			if y > maxY {
				maxY = y
			}
		}
	}
	if maxY <= 0 {
		return
	}
	const width = 50
	fmt.Fprintf(w, "\n%s (bar = %s, full scale %s)\n", s.Title, s.YLabel, formatFloat(maxY))
	for _, l := range s.Lines {
		fmt.Fprintf(w, "%s:\n", l.Name)
		for i, y := range l.Y {
			n := int(y / maxY * width)
			if n < 0 {
				n = 0
			}
			fmt.Fprintf(w, "  %10s |%s %s\n", formatFloat(l.X[i]), strings.Repeat("#", n), formatFloat(y))
		}
	}
}
