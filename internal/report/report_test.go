package report

import (
	"strings"
	"testing"

	"powerstack/internal/kernel"
	"powerstack/internal/roofline"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table I", "Property", "Value")
	tb.AddRow("CPU", "Intel Xeon E5-2695")
	tb.AddRow("Cores Per Node", "36")
	tb.AddRow("TDP") // short row padded
	out := tb.String()
	for _, frag := range []string{"Table I", "Property", "Value", "Xeon", "36", "---"} {
		if !strings.Contains(out, frag) {
			t.Errorf("table output missing %q:\n%s", frag, out)
		}
	}
	if len(tb.rows) != 3 {
		t.Errorf("rows = %d", len(tb.rows))
	}
	// Columns aligned: every line has the value column starting at the
	// same offset.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 5 {
		t.Fatalf("line count = %d", len(lines))
	}
}

func TestHeatmapRendering(t *testing.T) {
	h := Heatmap{
		Title:    "Fig 4",
		RowLabel: "FLOPs/B",
		RowNames: []string{"0.25", "8"},
		ColNames: []string{"0%", "75% at 3x"},
		Values:   [][]float64{{214, 212}, {232}}, // ragged: missing cell
		Format:   "%3.0f",
	}
	out := h.String()
	for _, frag := range []string{"Fig 4", "FLOPs/B", "0.25", "214", "232", "-"} {
		if !strings.Contains(out, frag) {
			t.Errorf("heatmap missing %q:\n%s", frag, out)
		}
	}
}

func TestHeatmapDefaults(t *testing.T) {
	h := Heatmap{RowNames: []string{"r"}, ColNames: []string{"c"}, Values: [][]float64{{1.5}}}
	if !strings.Contains(h.String(), "2") { // %.0f rounds 1.5 to 2
		t.Errorf("default format failed: %s", h.String())
	}
}

func TestBarChartRendering(t *testing.T) {
	var c BarChart
	c.Title = "Time Savings"
	c.Unit = "%"
	c.Add("MixedAdaptive", 7.0)
	c.Add("JobAdaptive", 5.5)
	c.Add("Regression", -2.0)
	out := c.String()
	if !strings.Contains(out, "Time Savings") || !strings.Contains(out, "#") {
		t.Errorf("bar chart output:\n%s", out)
	}
	if !strings.Contains(out, "-") {
		t.Errorf("negative bar not rendered:\n%s", out)
	}
	if !strings.Contains(out, "7.00%") {
		t.Errorf("value missing:\n%s", out)
	}
}

func TestBarChartAllZeros(t *testing.T) {
	var c BarChart
	c.Add("a", 0)
	out := c.String()
	if !strings.Contains(out, "0.00") {
		t.Errorf("zero chart:\n%s", out)
	}
}

func TestBarChartClipsToWidth(t *testing.T) {
	c := BarChart{Scale: 1, Width: 10}
	c.Add("big", 100)
	out := c.String()
	if strings.Contains(out, strings.Repeat("#", 11)) {
		t.Errorf("bar exceeded width:\n%s", out)
	}
}

func TestHistogramRendering(t *testing.T) {
	h := Histogram{
		Title:  "Fig 6",
		Edges:  []float64{1.6, 1.7, 1.8, 1.9},
		Counts: []int{522, 918, 560},
	}
	out := h.String()
	for _, frag := range []string{"Fig 6", "[1.60, 1.70)", "918", "#"} {
		if !strings.Contains(out, frag) {
			t.Errorf("histogram missing %q:\n%s", frag, out)
		}
	}
}

func TestLineChartRendering(t *testing.T) {
	c := LineChart{Title: "Fig 1", YUnit: " MW", Max: 1.35}
	c.Add("Nov '17", 0.82)
	c.Add("Dec '17", 0.85)
	out := c.String()
	for _, frag := range []string{"Fig 1", "Nov '17", "=", "full scale = 1.35"} {
		if !strings.Contains(out, frag) {
			t.Errorf("line chart missing %q:\n%s", frag, out)
		}
	}
}

func TestRooflinePlot(t *testing.T) {
	plat := roofline.QuartzBroadwell()
	p := RooflinePlot{
		Title:    "Fig 3",
		Platform: plat,
		Points:   plat.KernelSweep(kernel.YMM, plat.RefFreq),
	}
	out := p.String()
	for _, frag := range []string{"Fig 3", "o", "=", "DP Vector FMA Peak", "DRAM Bandwidth", "38.49", "12.44"} {
		if !strings.Contains(out, frag) {
			t.Errorf("roofline missing %q", frag)
		}
	}
	// The plot body has the requested default dimensions.
	lines := strings.Split(out, "\n")
	body := 0
	for _, l := range lines {
		if strings.HasPrefix(l, "|") {
			body++
		}
	}
	if body != 24 {
		t.Errorf("plot rows = %d, want 24", body)
	}
}

func TestTruncate(t *testing.T) {
	if got := truncate("hello", 10); got != "hello" {
		t.Errorf("truncate no-op = %q", got)
	}
	if got := truncate("hello", 4); len([]byte(got)) > 6 || !strings.HasPrefix(got, "hel") {
		t.Errorf("truncate = %q", got)
	}
	if got := truncate("hello", 1); got != "h" {
		t.Errorf("truncate(1) = %q", got)
	}
}
