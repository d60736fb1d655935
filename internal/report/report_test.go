package report

import (
	"math"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table 1", "Distance", "Read", "Write")
	tb.AddRow("No Attack", "18.0", "22.7")
	tb.AddRow("1 cm", "0", "0")
	out := tb.String()
	if !strings.Contains(out, "Table 1") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "No Attack") || !strings.Contains(out, "22.7") {
		t.Fatalf("missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
}

func TestTablePadsShortRows(t *testing.T) {
	tb := NewTable("", "A", "B", "C")
	tb.AddRow("x")
	if len(tb.Rows[0]) != 3 {
		t.Fatal("row not padded")
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.AddRow("1,5", "plain")
	csv := tb.CSV()
	if !strings.Contains(csv, "\"1,5\"") {
		t.Fatalf("comma cell not quoted: %s", csv)
	}
	if !strings.HasPrefix(csv, "a,b\n") {
		t.Fatalf("missing header: %s", csv)
	}
	tb2 := NewTable("t", "a")
	tb2.AddRow(`say "hi"`)
	if !strings.Contains(tb2.CSV(), `"say ""hi"""`) {
		t.Fatalf("quotes not escaped: %s", tb2.CSV())
	}
}

func TestChartRendersSeries(t *testing.T) {
	c := Chart{
		Title:  "Figure 2(a)",
		XLabel: "Frequency (kHz)",
		YLabel: "Throughput (MB/s)",
		Series: []Series{
			{Name: "Scenario 1", X: []float64{1, 2, 3}, Y: []float64{0, 10, 20}},
			{Name: "Scenario 2", X: []float64{1, 2, 3}, Y: []float64{5, 15, 25}},
		},
	}
	out := c.String()
	if !strings.Contains(out, "Figure 2(a)") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "Scenario 1") || !strings.Contains(out, "Scenario 2") {
		t.Fatal("missing legend")
	}
	if !strings.ContainsRune(out, '*') || !strings.ContainsRune(out, 'o') {
		t.Fatal("missing markers")
	}
}

func TestChartEmptyData(t *testing.T) {
	c := Chart{Title: "empty"}
	if !strings.Contains(c.String(), "no data") {
		t.Fatal("empty chart should say so")
	}
}

func TestChartEmptySeries(t *testing.T) {
	// A chart whose series exist but carry no points is still "no data".
	c := Chart{Title: "hollow", Series: []Series{{Name: "a"}, {Name: "b"}}}
	if !strings.Contains(c.String(), "no data") {
		t.Fatalf("hollow chart should say no data:\n%s", c.String())
	}
	if got := c.CSV(); got != "series,x,y\n" {
		t.Fatalf("hollow CSV should be header only: %q", got)
	}
}

func TestChartSinglePoint(t *testing.T) {
	// One point means maxX == minX; the chart must still render the point
	// rather than claiming there is no data.
	c := Chart{Title: "solo", Series: []Series{{Name: "s", X: []float64{2.5}, Y: []float64{7}}}}
	out := c.String()
	if strings.Contains(out, "no data") {
		t.Fatalf("single-point chart reported no data:\n%s", out)
	}
	if !strings.ContainsRune(out, '*') {
		t.Fatalf("single point not plotted:\n%s", out)
	}
}

func TestChartNonFiniteValues(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	c := Chart{
		Title: "dirty",
		Series: []Series{{
			Name: "s",
			X:    []float64{1, 2, nan, 4, 5},
			Y:    []float64{10, inf, 30, nan, 50},
		}},
	}
	// Must not panic, and the scale must come from the finite points only.
	out := c.String()
	if strings.Contains(out, "no data") {
		t.Fatalf("finite points should still render:\n%s", out)
	}
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Fatalf("non-finite leaked into render:\n%s", out)
	}
	csv := c.CSV()
	if strings.Contains(csv, "NaN") || strings.Contains(csv, "Inf") {
		t.Fatalf("non-finite leaked into CSV: %s", csv)
	}
	// Only the two fully-finite points survive.
	if !strings.Contains(csv, "s,1,10") || !strings.Contains(csv, "s,5,50") {
		t.Fatalf("finite rows missing: %s", csv)
	}
	if got := strings.Count(csv, "\n"); got != 3 { // header + 2 rows
		t.Fatalf("CSV rows = %d, want 3: %s", got, csv)
	}
}

func TestChartAllNonFinite(t *testing.T) {
	nan := math.NaN()
	c := Chart{Title: "void", Series: []Series{{Name: "s", X: []float64{nan, nan}, Y: []float64{nan, nan}}}}
	if !strings.Contains(c.String(), "no data") {
		t.Fatalf("all-NaN chart should say no data:\n%s", c.String())
	}
	if got := c.CSV(); got != "series,x,y\n" {
		t.Fatalf("all-NaN CSV should be header only: %q", got)
	}
}

func TestChartMismatchedXYLengths(t *testing.T) {
	// Y shorter than X must not panic; the unmatched X is dropped.
	c := Chart{Series: []Series{{Name: "s", X: []float64{1, 2, 3}, Y: []float64{4, 5}}}}
	out := c.String()
	if strings.Contains(out, "no data") {
		t.Fatalf("paired points should render:\n%s", out)
	}
	if csv := c.CSV(); strings.Count(csv, "\n") != 3 {
		t.Fatalf("want 2 data rows: %s", csv)
	}
}

func TestChartCSV(t *testing.T) {
	c := Chart{Series: []Series{{Name: "s", X: []float64{1}, Y: []float64{2}}}}
	csv := c.CSV()
	if !strings.Contains(csv, "series,x,y") || !strings.Contains(csv, "s,1,2") {
		t.Fatalf("csv wrong: %s", csv)
	}
}

func TestFormatHelpers(t *testing.T) {
	if FormatMBps(0) != "0" {
		t.Fatal("zero throughput")
	}
	if FormatMBps(18.04) != "18.0" {
		t.Fatal("rounding")
	}
	if FormatLatencyMs(-1) != "-" {
		t.Fatal("no-response marker")
	}
	if FormatLatencyMs(0.21) != "0.2" {
		t.Fatal("latency format")
	}
}
