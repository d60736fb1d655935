// Package report renders experiment results the way the paper presents
// them: aligned ASCII tables for Tables 1–3, CSV for downstream plotting,
// and ASCII line charts for Figure 2's throughput-versus-frequency series.
package report

import (
	"fmt"
	"math"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable starts a table with the given title and headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	for len(cells) < len(t.Headers) {
		cells = append(cells, "")
	}
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (quoted when needed).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Series is one named line of (x, y) points for a chart.
type Series struct {
	Name string
	X, Y []float64
}

// Chart renders multiple series as a 72×20-character ASCII line chart, the
// stand-in for the paper's Figure 2 plots.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// markers label the series in draw order.
var markers = []byte{'*', 'o', '+', 'x', '#', '@'}

// plottable reports whether point i of the series has both coordinates
// present and finite. Meters and experiment math can emit NaN/Inf (e.g. a
// zero-duration window); those points are dropped from rendering and CSV
// rather than corrupting the scale or the output file.
func plottable(s Series, i int) bool {
	return i < len(s.Y) && !math.IsNaN(s.X[i]) && !math.IsInf(s.X[i], 0) &&
		!math.IsNaN(s.Y[i]) && !math.IsInf(s.Y[i], 0)
}

// String renders the chart.
func (c *Chart) String() string {
	const w, h = 72, 20 // plot area in characters
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := 0.0, math.Inf(-1)
	for _, s := range c.Series {
		for i := range s.X {
			if !plottable(s, i) {
				continue
			}
			minX = math.Min(minX, s.X[i])
			maxX = math.Max(maxX, s.X[i])
			maxY = math.Max(maxY, s.Y[i])
		}
	}
	if math.IsInf(minX, 1) {
		return c.Title + "\n(no data)\n"
	}
	if maxX == minX {
		// A single distinct x (one-point series): widen the range so the
		// point still renders instead of reporting "no data".
		maxX = minX + 1
	}
	if maxY <= minY {
		maxY = minY + 1
	}
	grid := make([][]byte, h)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", w))
	}
	for si, s := range c.Series {
		m := markers[si%len(markers)]
		for i := range s.X {
			if !plottable(s, i) {
				continue
			}
			px := int((s.X[i] - minX) / (maxX - minX) * float64(w-1))
			py := int((s.Y[i] - minY) / (maxY - minY) * float64(h-1))
			row := h - 1 - py
			if row >= 0 && row < h && px >= 0 && px < w {
				grid[row][px] = m
			}
		}
	}
	var b strings.Builder
	if c.Title != "" {
		b.WriteString(c.Title + "\n")
	}
	for si, s := range c.Series {
		fmt.Fprintf(&b, "  %c %s", markers[si%len(markers)], s.Name)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%8.1f +%s\n", maxY, strings.Repeat("-", w))
	for i, row := range grid {
		label := "         "
		if i == h-1 {
			label = fmt.Sprintf("%8.1f ", minY)
		}
		b.WriteString(label + "|" + string(row) + "\n")
	}
	fmt.Fprintf(&b, "          %s\n", strings.Repeat("-", w))
	fmt.Fprintf(&b, "          %-12.4g%s%12.4g\n", minX, strings.Repeat(" ", maxInt(0, w-24)), maxX)
	if c.XLabel != "" || c.YLabel != "" {
		fmt.Fprintf(&b, "          x: %s   y: %s\n", c.XLabel, c.YLabel)
	}
	return b.String()
}

// CSV renders all series as long-format CSV (series,x,y). Points with
// NaN/Inf coordinates are dropped — spreadsheet and plotting tools choke
// on those tokens.
func (c *Chart) CSV() string {
	var b strings.Builder
	b.WriteString("series,x,y\n")
	for _, s := range c.Series {
		for i := range s.X {
			if !plottable(s, i) {
				continue
			}
			fmt.Fprintf(&b, "%s,%g,%g\n", s.Name, s.X[i], s.Y[i])
		}
	}
	return b.String()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// FormatMBps formats throughput the way the paper's tables do.
func FormatMBps(v float64) string {
	if v == 0 {
		return "0"
	}
	return fmt.Sprintf("%.1f", v)
}

// FormatLatencyMs formats a latency, printing the paper's "-" for
// no-response markers (negative values).
func FormatLatencyMs(ms float64) string {
	if ms < 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", ms)
}
