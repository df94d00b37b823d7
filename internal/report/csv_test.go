package report

import (
	"bytes"
	"encoding/csv"
	"io"
	"strings"
	"testing"

	"powerstack/internal/sim"
	"powerstack/internal/units"
	"powerstack/internal/workload"
)

func testGrid() *sim.Grid {
	return &sim.Grid{Mixes: []sim.MixResult{{
		Mix: workload.Mix{Name: "WastefulPower"},
		Cells: map[string]map[string]sim.Cell{
			"min": {
				"StaticCaps": {
					Mix: "WastefulPower", Budget: "min", Policy: "StaticCaps",
					BudgetPwr: 167000 * units.Watt, MeanPower: 167050 * units.Watt,
					Utilization: 1.0003,
				},
			},
			"ideal": {}, "max": {},
		},
		Savings: map[string]map[string]sim.Savings{
			"min": {}, "max": {},
			"ideal": {
				"MixedAdaptive": {
					Mix: "WastefulPower", Budget: "ideal", Policy: "MixedAdaptive",
					Time: 0.0527, TimeCI: 0.0002, Energy: 0.0638, EnergyCI: 0.0002,
					EDP: 0.113, FlopsPerW: 0.068,
				},
			},
		},
	}}}
}

func TestWriteFigure7CSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFigure7CSV(&buf, testGrid()); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("rows = %d, want header + 1", len(recs))
	}
	if recs[0][0] != "mix" || recs[0][5] != "utilization" {
		t.Errorf("header = %v", recs[0])
	}
	if recs[1][0] != "WastefulPower" || recs[1][3] != "StaticCaps" {
		t.Errorf("row = %v", recs[1])
	}
	if !strings.HasPrefix(recs[1][5], "1.0003") {
		t.Errorf("utilization = %q", recs[1][5])
	}
}

func TestWriteFigure8CSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFigure8CSV(&buf, testGrid()); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("rows = %d", len(recs))
	}
	row := recs[1]
	if row[2] != "MixedAdaptive" || !strings.HasPrefix(row[3], "0.0527") {
		t.Errorf("row = %v", row)
	}
}

// WriteHeatmapCSV emits a Figure 4/5-style grid: the first column is the
// row name, remaining columns follow ColNames.
func WriteHeatmapCSV(w io.Writer, h Heatmap) error {
	cw := csv.NewWriter(w)
	header := append([]string{h.RowLabel}, h.ColNames...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for i, name := range h.RowNames {
		rec := make([]string, 0, len(h.ColNames)+1)
		rec = append(rec, name)
		for j := range h.ColNames {
			v := ""
			if i < len(h.Values) && j < len(h.Values[i]) {
				v = ftoa(h.Values[i][j])
			}
			rec = append(rec, v)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func TestWriteHeatmapCSV(t *testing.T) {
	h := Heatmap{
		RowLabel: "FLOPs/B",
		RowNames: []string{"0.25", "8"},
		ColNames: []string{"0%", "75% at 3x"},
		Values:   [][]float64{{214, 212}, {232}},
	}
	var buf bytes.Buffer
	if err := WriteHeatmapCSV(&buf, h); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("rows = %d", len(recs))
	}
	if recs[0][0] != "FLOPs/B" || recs[2][0] != "8" {
		t.Errorf("records = %v", recs)
	}
	if recs[2][2] != "" {
		t.Errorf("missing cell should be empty, got %q", recs[2][2])
	}
}

func TestCSVName(t *testing.T) {
	if got := CSVName("figure7"); got != "figure7.csv" {
		t.Errorf("CSVName = %q", got)
	}
}
