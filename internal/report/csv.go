package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"powerstack/internal/sim"
)

// CSV exports let the figures be regenerated with external plotting tools
// (the paper's figures are bar/heatmap plots; the text renderers in this
// package are for terminals).

// WriteFigure7CSV emits one row per (mix, budget, policy) with the power
// utilization of Figure 7.
func WriteFigure7CSV(w io.Writer, g *sim.Grid) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"mix", "budget", "budget_watts", "policy",
		"mean_power_watts", "utilization", "overrun_watts",
	}); err != nil {
		return err
	}
	for _, mr := range g.Mixes {
		for _, lvl := range []string{"min", "ideal", "max"} {
			for policyName, cell := range mr.Cells[lvl] {
				rec := []string{
					mr.Mix.Name,
					lvl,
					ftoa(cell.BudgetPwr.Watts()),
					policyName,
					ftoa(cell.MeanPower.Watts()),
					ftoa(cell.Utilization),
					ftoa(cell.Overrun.Watts()),
				}
				if err := cw.Write(rec); err != nil {
					return err
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFigure8CSV emits one row per (mix, budget, policy) with the savings
// metrics of Figure 8 and their confidence intervals.
func WriteFigure8CSV(w io.Writer, g *sim.Grid) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"mix", "budget", "policy",
		"time_savings", "time_ci95", "energy_savings", "energy_ci95",
		"edp_savings", "flops_per_watt_increase",
	}); err != nil {
		return err
	}
	for _, mr := range g.Mixes {
		for _, lvl := range []string{"min", "ideal", "max"} {
			for policyName, s := range mr.Savings[lvl] {
				rec := []string{
					mr.Mix.Name, lvl, policyName,
					ftoa(s.Time), ftoa(s.TimeCI),
					ftoa(s.Energy), ftoa(s.EnergyCI),
					ftoa(s.EDP), ftoa(s.FlopsPerW),
				}
				if err := cw.Write(rec); err != nil {
					return err
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

func ftoa(f float64) string {
	return strconv.FormatFloat(f, 'g', 8, 64)
}

// CSVName builds the conventional artifact file name ("figure7.csv").
func CSVName(artifact string) string { return fmt.Sprintf("%s.csv", artifact) }
