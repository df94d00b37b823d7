// Package report renders the stack's tables and figures as plain text for
// terminals and logs: generic aligned tables (Tables I-III), the power
// heatmaps of Figures 4-5, bar charts for the Figure 7/8 panels, a
// histogram view of the Figure 6 frequency clusters, an ASCII log-log
// roofline plot (Figure 3), and a downsampled line chart for the Figure 1
// facility trace.
package report

import (
	"fmt"
	"math"
	"strings"
)

// Table is a simple aligned text table.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
	return b.String()
}

// Heatmap renders a numeric grid in the style of Figures 4 and 5: row
// labels down the left, column labels across the top, one formatted value
// per cell.
type Heatmap struct {
	Title     string
	RowLabel  string
	RowNames  []string
	ColNames  []string
	Values    [][]float64 // [row][col]
	CellWidth int
	Format    string // e.g. "%3.0f"
}

// String renders the heatmap.
func (h Heatmap) String() string {
	width := h.CellWidth
	if width <= 0 {
		width = 6
	}
	format := h.Format
	if format == "" {
		format = "%.0f"
	}
	roww := len(h.RowLabel)
	for _, r := range h.RowNames {
		if len(r) > roww {
			roww = len(r)
		}
	}
	var b strings.Builder
	if h.Title != "" {
		fmt.Fprintf(&b, "%s\n", h.Title)
	}
	fmt.Fprintf(&b, "%-*s", roww, h.RowLabel)
	for _, c := range h.ColNames {
		fmt.Fprintf(&b, " %*s", width, truncate(c, width))
	}
	b.WriteString("\n")
	for i, r := range h.RowNames {
		fmt.Fprintf(&b, "%-*s", roww, r)
		for j := range h.ColNames {
			v := math.NaN()
			if i < len(h.Values) && j < len(h.Values[i]) {
				v = h.Values[i][j]
			}
			cell := "-"
			if !math.IsNaN(v) {
				cell = fmt.Sprintf(format, v)
			}
			fmt.Fprintf(&b, " %*s", width, cell)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// BarChart renders labeled horizontal bars, used for the Figure 7 power
// utilization panels and the Figure 8 savings panels.
type BarChart struct {
	Title string
	// Unit is appended to each value ("%", "W").
	Unit string
	// Scale is the value corresponding to a full-width bar; zero
	// auto-scales to the maximum magnitude.
	Scale float64
	// Width is the bar width in runes (default 40).
	Width  int
	labels []string
	values []float64
}

// Add appends one bar.
func (c *BarChart) Add(label string, value float64) {
	c.labels = append(c.labels, label)
	c.values = append(c.values, value)
}

// String renders the chart. Negative values draw to the left of the axis.
func (c *BarChart) String() string {
	width := c.Width
	if width <= 0 {
		width = 40
	}
	scale := c.Scale
	if scale <= 0 {
		for _, v := range c.values {
			if math.Abs(v) > scale {
				scale = math.Abs(v)
			}
		}
		if scale == 0 {
			scale = 1
		}
	}
	laww := 0
	for _, l := range c.labels {
		if len(l) > laww {
			laww = len(l)
		}
	}
	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	for i, l := range c.labels {
		v := c.values[i]
		n := int(math.Round(math.Abs(v) / scale * float64(width)))
		if n > width {
			n = width
		}
		bar := strings.Repeat("#", n)
		if v < 0 {
			bar = strings.Repeat("-", n)
		}
		fmt.Fprintf(&b, "%-*s |%-*s %8.2f%s\n", laww, l, width, bar, v, c.Unit)
	}
	return b.String()
}

// Histogram renders bin counts as vertical magnitudes in rows, used for the
// Figure 6 achieved-frequency distribution.
type Histogram struct {
	Title  string
	Edges  []float64
	Counts []int
	// EdgeFormat formats the bin edges (default "%.2f").
	EdgeFormat string
	Width      int
}

// String renders the histogram.
func (h Histogram) String() string {
	width := h.Width
	if width <= 0 {
		width = 50
	}
	ef := h.EdgeFormat
	if ef == "" {
		ef = "%.2f"
	}
	maxCount := 1
	for _, c := range h.Counts {
		if c > maxCount {
			maxCount = c
		}
	}
	var b strings.Builder
	if h.Title != "" {
		fmt.Fprintf(&b, "%s\n", h.Title)
	}
	for i, c := range h.Counts {
		lo, hi := "", ""
		if i < len(h.Edges) {
			lo = fmt.Sprintf(ef, h.Edges[i])
		}
		if i+1 < len(h.Edges) {
			hi = fmt.Sprintf(ef, h.Edges[i+1])
		}
		n := int(math.Round(float64(c) / float64(maxCount) * float64(width)))
		fmt.Fprintf(&b, "[%s, %s) |%-*s %d\n", lo, hi, width, strings.Repeat("#", n), c)
	}
	return b.String()
}

// LineChart renders a downsampled series as one row per bucket, used for
// the Figure 1 facility trace.
type LineChart struct {
	Title string
	// YUnit is appended to values.
	YUnit string
	// Max is the full-scale value (the rated power line).
	Max    float64
	Width  int
	labels []string
	values []float64
}

// Add appends one point.
func (c *LineChart) Add(label string, value float64) {
	c.labels = append(c.labels, label)
	c.values = append(c.values, value)
}

// String renders the chart with a full-scale marker at Max.
func (c *LineChart) String() string {
	width := c.Width
	if width <= 0 {
		width = 60
	}
	mx := c.Max
	if mx <= 0 {
		for _, v := range c.values {
			if v > mx {
				mx = v
			}
		}
		if mx == 0 {
			mx = 1
		}
	}
	laww := 0
	for _, l := range c.labels {
		if len(l) > laww {
			laww = len(l)
		}
	}
	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	for i, l := range c.labels {
		v := c.values[i]
		n := int(math.Round(v / mx * float64(width)))
		if n > width {
			n = width
		}
		if n < 0 {
			n = 0
		}
		row := strings.Repeat("=", n) + strings.Repeat(" ", width-n)
		fmt.Fprintf(&b, "%-*s |%s| %8.3g%s\n", laww, l, row, v, c.YUnit)
	}
	fmt.Fprintf(&b, "%-*s  %s^ full scale = %.3g%s\n", laww, "", strings.Repeat(" ", width), mx, c.YUnit)
	return b.String()
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	if n <= 1 {
		return s[:n]
	}
	return s[:n-1] + "…"
}
