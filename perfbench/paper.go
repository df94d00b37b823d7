package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"

	"powerstack/internal/charz"
	"powerstack/internal/cluster"
	"powerstack/internal/cpumodel"
	"powerstack/internal/node"
	"powerstack/internal/obs"
	"powerstack/internal/sim"
	"powerstack/internal/workload"
)

// referenceFile is cmd/experiments' committed full-scale output, relative
// to the repository root the benchmark runs from.
const referenceFile = "results_full_scale.txt"

// The paper's abstract claims, which the grid's headline is compared to.
const (
	paperTimeSavingsPct   = 7.0
	paperEnergySavingsPct = 11.0
)

// paperSize is the grid's input size.
type paperSize struct {
	scale, charNodes, iters int
}

// paperGrid is the Figure 7/8 evaluation grid at paper scale: 6 mixes x 3
// budgets x 5 policies, the run behind results_full_scale.txt
// (cmd/experiments -all -scale 900 -charnodes 100 -iters 100). All its work
// is in sim, geopm, bsp, cpumodel and roofline; it never reaches the
// facility event core.
type paperGrid struct {
	opt  options
	size paperSize

	pool  []*node.Node
	db    *charz.DB
	mixes []workload.Mix
	// sink is the traced run's obs.Sink, nil otherwise.
	sink *obs.Sink
}

func newPaperGrid(opt options) *paperGrid {
	size := paperSize{scale: 900, charNodes: 100, iters: 100}
	if opt.small {
		size = paperSize{scale: 30, charNodes: 6, iters: 6}
	}
	return &paperGrid{opt: opt, size: size}
}

// The grid's cells are independent; two workers keep runs steady on a
// two-core host.
func (p *paperGrid) workers() int        { return 2 }
func (p *paperGrid) reusable() bool      { return true }
func (p *paperGrid) release()            { p.pool, p.db, p.mixes, p.sink = nil, nil, nil, nil }
func (p *paperGrid) publishesDone() bool { return true }

// setup is cmd/experiments' set-up: the variation survey of a population
// large enough for the medium cluster to cover the run, then the Table II
// catalog characterized on the characterization nodes.
func (p *paperGrid) setup(ctx context.Context, tr *tracer, sink *obs.Sink, _ *allocStats) error {
	p.sink = sink
	root := tr.parent()
	need := p.size.scale + p.size.charNodes
	var medium []*node.Node
	// cmd/experiments surveys 2.4x the nodes it needs; a seed whose medium
	// cluster falls short surveys a population 10% larger, so every seed
	// yields a grid.
	for population := need * 24 / 10; len(medium) < need; population += population / 10 {
		if population > 4*need {
			return fmt.Errorf("no medium cluster of %d nodes at seed %d", need, p.opt.seed)
		}
		h := tr.begin("cluster.new", root)
		c, err := cluster.New(population, cpumodel.Quartz(), cpumodel.QuartzVariation(), p.opt.seed)
		h.end()
		if err != nil {
			return err
		}
		h = tr.begin("cluster.medium", root)
		medium, _, err = c.MediumNodes()
		h.end()
		if err != nil {
			return err
		}
	}
	h := tr.begin("charz.characterize", root)
	db, err := charz.CharacterizeAll(ctx, workload.Catalog(), medium[:p.size.charNodes],
		charz.Options{MonitorIters: 15, BalancerIters: 50, Seed: p.opt.seed, NoiseSigma: -1})
	h.end()
	if err != nil {
		return err
	}
	mixes, err := workload.Mixes(db, p.opt.seed)
	if err != nil {
		return err
	}
	for i := range mixes {
		mixes[i] = mixes[i].Scaled(p.size.scale)
	}
	p.pool = medium[p.size.charNodes:need]
	p.db = db
	p.mixes = mixes
	return nil
}

func (p *paperGrid) unit(ctx context.Context, tr *tracer) (*unitResult, error) {
	r := sim.NewRunner(p.pool, p.db)
	r.Iters = p.size.iters
	r.Seed = p.opt.seed + 1000
	r.Parallelism = p.workers()
	r.Obs = p.sink
	var spent meter
	var grid *sim.Grid
	h := tr.beginCurrent("sim.run", 0)
	err := spent.time(func() (err error) { grid, err = r.Run(ctx, p.mixes); return err })
	h.end()
	if err != nil {
		return nil, err
	}
	canon, err := json.Marshal(grid)
	if err != nil {
		return nil, err
	}
	cells := 0
	for _, mr := range grid.Mixes {
		for _, byPolicy := range mr.Cells {
			cells += len(byPolicy)
		}
	}
	u := &unitResult{work: float64(cells), spent: spent, attempted: cells, digest: digestOf(canon)}
	u.check(cells == 6*3*5, "grid has %d cells, want 90", cells)
	for _, mr := range grid.Mixes {
		for lvl, byPolicy := range mr.Cells {
			for pol, cell := range byPolicy {
				u.check(cell.SystemTime > 0 && cell.TotalEnergy > 0 && cell.Utilization > 0,
					"cell %s/%s/%s has no time, energy or power", mr.Mix.Name, lvl, pol)
			}
		}
	}
	h2 := grid.FindHeadline()
	timePct, energyPct := 100*h2.MaxTimeSavings.Time, 100*h2.MaxEnergySavings.Energy
	u.stats = map[string]float64{
		"cells":               float64(cells),
		"headline_time_pct":   timePct,
		"headline_energy_pct": energyPct,
	}
	u.layer = map[string]float64{
		"sim.headline_time_pct":       timePct,
		"sim.headline_energy_pct":     energyPct,
		"sim.headline_time_err_pct":   math.Abs(timePct - paperTimeSavingsPct),
		"sim.headline_energy_err_pct": math.Abs(energyPct - paperEnergySavingsPct),
	}
	if p.opt.seed == 1 && !p.opt.small {
		p.checkReference(u, grid)
	}
	return u, nil
}

// checkReference compares the grid with the committed full-scale output of
// cmd/experiments at its printed precision: every Figure 7 cell, every
// Figure 8 entry and both headline lines.
func (p *paperGrid) checkReference(u *unitResult, grid *sim.Grid) {
	data, err := os.ReadFile(referenceFile)
	if err != nil {
		u.check(false, "reading reference output: %v", err)
		return
	}
	ref, err := parseReference(string(data))
	if err != nil {
		u.check(false, "parsing reference output: %v", err)
		return
	}
	got := renderReference(grid)
	u.check(len(ref) == len(got), "reference has %d entries, grid renders %d", len(ref), len(got))
	for k, want := range ref {
		u.check(got[k] == want, "%s: grid %q, reference %q", k, got[k], want)
	}
}

var (
	mixHeader   = regexp.MustCompile(`^--- (\w+) ---$`)
	budgetLine  = regexp.MustCompile(`^(min|ideal|max) budget \(`)
	barLine     = regexp.MustCompile(`^(\w+)\s+\|[#-]*\s+(-?[0-9.]+%)$`)
	savingsLine = regexp.MustCompile(`^(Time Savings|Energy Savings|EDP Savings|FLOPS/W Increase)\s+(min|ideal|max)\s+(.*)$`)
	savingsCell = regexp.MustCompile(`[+-]\d+\.\d\d%\*?(?: ±\d+\.\d\d)?`)
	headline    = regexp.MustCompile(`^\s+max (time|energy) savings:\s+(-?\d+\.\d\d%) \(±(\d+\.\d\d)\) at (\w+/\w+)`)
)

// savingsPolicies are Figure 8's columns, in print order.
var savingsPolicies = []string{"MinimizeWaste", "JobAdaptive", "MixedAdaptive"}

// parseReference extracts the Figure 7 bars, the Figure 8 table entries and
// the headline lines from cmd/experiments output, keyed like
// renderReference.
func parseReference(text string) (map[string]string, error) {
	out := map[string]string{}
	section, mix, lvl := "", "", ""
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, "Figure 7"):
			section = "fig7"
		case strings.HasPrefix(line, "Figure 8"):
			section = "fig8"
		case strings.HasPrefix(line, "Headline"):
			section = "headline"
		}
		if m := mixHeader.FindStringSubmatch(line); m != nil {
			mix = m[1]
			continue
		}
		switch section {
		case "fig7":
			if m := budgetLine.FindStringSubmatch(line); m != nil {
				lvl = m[1]
			} else if m := barLine.FindStringSubmatch(line); m != nil {
				out["fig7/"+mix+"/"+lvl+"/"+m[1]] = m[2]
			}
		case "fig8":
			if m := savingsLine.FindStringSubmatch(line); m != nil {
				cells := savingsCell.FindAllString(m[3], -1)
				if len(cells) != len(savingsPolicies) {
					return nil, fmt.Errorf("figure 8 row %q has %d entries", line, len(cells))
				}
				for i, c := range cells {
					out["fig8/"+mix+"/"+m[1]+"/"+m[2]+"/"+savingsPolicies[i]] = c
				}
			}
		case "headline":
			if m := headline.FindStringSubmatch(line); m != nil {
				out["headline/"+m[1]] = m[2] + " ±" + m[3] + " " + m[4]
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no figure entries found")
	}
	return out, nil
}

// renderReference formats the grid the way cmd/experiments prints it.
func renderReference(g *sim.Grid) map[string]string {
	out := map[string]string{}
	for _, mr := range g.Mixes {
		for lvl, byPolicy := range mr.Cells {
			for pol, cell := range byPolicy {
				out["fig7/"+mr.Mix.Name+"/"+lvl+"/"+pol] = fmt.Sprintf("%.2f%%", 100*cell.Utilization)
			}
		}
		for lvl, byPolicy := range mr.Savings {
			for pol, s := range byPolicy {
				entry := func(metric string, v, ci float64, sig bool) {
					text := fmt.Sprintf("%+.2f%%", 100*v)
					if sig {
						text += "*"
					}
					if 100*ci > 0 {
						text += fmt.Sprintf(" ±%.2f", 100*ci)
					}
					out["fig8/"+mr.Mix.Name+"/"+metric+"/"+lvl+"/"+pol] = text
				}
				entry("Time Savings", s.Time, s.TimeCI, s.TimeSignificant)
				entry("Energy Savings", s.Energy, s.EnergyCI, s.EnergySignificant)
				entry("EDP Savings", s.EDP, 0, false)
				entry("FLOPS/W Increase", s.FlopsPerW, 0, false)
			}
		}
	}
	h := g.FindHeadline()
	out["headline/time"] = fmt.Sprintf("%.2f%% ±%.2f %s/%s", 100*h.MaxTimeSavings.Time, 100*h.MaxTimeSavings.TimeCI, h.MaxTimeSavings.Mix, h.MaxTimeSavings.Budget)
	out["headline/energy"] = fmt.Sprintf("%.2f%% ±%.2f %s/%s", 100*h.MaxEnergySavings.Energy, 100*h.MaxEnergySavings.EnergyCI, h.MaxEnergySavings.Mix, h.MaxEnergySavings.Budget)
	return out
}
