// Command experiments regenerates the paper's evaluation artifacts:
//
//	-table 1    Table I:   Quartz system properties
//	-table 2    Table II:  workloads in each workload mix
//	-table 3    Table III: min/ideal/max power budgets per mix
//	-figure 7   Figure 7:  mean power used by each policy (% of budget)
//	-figure 8   Figure 8:  time/energy/EDP/FLOPS-per-W savings vs StaticCaps
//	-headline   the abstract's headline numbers (max time & energy savings)
//	-all        everything above
//
// The evaluation first characterizes every configuration the chosen mixes
// use (or loads a database saved by cmd/characterize), then runs the
// (mix x policy x budget) grid.
//
// Usage:
//
//	experiments -all [-scale 900] [-iters 100] [-charnodes 100]
//	            [-db char.json] [-seed 1] [-mix WastefulPower] [-parallel 4]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"powerstack/internal/charz"
	"powerstack/internal/cliconf"
	"powerstack/internal/cluster"
	"powerstack/internal/cpumodel"
	"powerstack/internal/node"
	"powerstack/internal/obs"
	"powerstack/internal/report"
	"powerstack/internal/sim"
	"powerstack/internal/units"
	"powerstack/internal/workload"
)

type options struct {
	scale     int
	iters     int
	charNodes int
	parallel  int
	seed      uint64
	dbPath    string
	mixFilter string
	csvDir    string

	// sink is non-nil when -obsdir is set; it is threaded through the
	// evaluation runners so the grid records metrics and decision events.
	sink   *obs.Sink
	obsDir string
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var opt options
	table := flag.Int("table", 0, "regenerate Table N (1-3)")
	figure := flag.Int("figure", 0, "regenerate Figure N (7 or 8)")
	headline := flag.Bool("headline", false, "report the headline savings numbers")
	all := flag.Bool("all", false, "regenerate every table and figure")
	flag.IntVar(&opt.scale, "scale", 180, "total nodes per mix (the paper runs 900)")
	flag.IntVar(&opt.iters, "iters", 50, "iterations per run (the paper uses 100)")
	flag.IntVar(&opt.charNodes, "charnodes", 16, "nodes for characterization runs (the paper uses 100)")
	flag.Uint64Var(&opt.seed, "seed", 1, "random seed")
	flag.IntVar(&opt.parallel, "parallel", 0, "workers executing evaluation cells, each cell on its own cloned pool (0 = all CPUs, 1 = sequential); any value produces identical results")
	flag.StringVar(&opt.dbPath, "db", "", "characterization database to load (and save if absent)")
	flag.StringVar(&opt.mixFilter, "mix", "", "restrict figures to one mix by name")
	flag.StringVar(&opt.csvDir, "csv", "", "also write figure7.csv and figure8.csv into this directory")
	online := flag.Bool("online", false, "also evaluate the execution-time coordination protocol (future work)")
	flag.StringVar(&opt.obsDir, "obsdir", "", "record observability during the grid and write metrics.txt + trace.json into this directory")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if !*all && *table == 0 && *figure == 0 && !*headline {
		flag.Usage()
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			log.Printf("wrote CPU profile to %s", *cpuProfile)
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatal(err)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			log.Printf("wrote heap profile to %s", *memProfile)
		}()
	}
	if opt.obsDir != "" {
		opt.sink = obs.New()
		defer writeObs(&opt)
	}

	if *all || *table == 1 {
		printTableI()
	}
	if *all || *table == 2 {
		printTableII(opt)
	}

	needGrid := *all || *table == 3 || *figure == 7 || *figure == 8 || *headline
	if !needGrid {
		return
	}

	env := setup(opt)
	if *all || *table == 3 {
		printTableIII(env)
	}
	if *all || *figure == 7 || *figure == 8 || *headline {
		grid := runGrid(env)
		if *all || *figure == 7 {
			printFigure7(grid)
		}
		if *all || *figure == 8 {
			printFigure8(grid)
		}
		if *all || *headline {
			printHeadline(grid)
		}
		if opt.csvDir != "" {
			writeCSVs(opt.csvDir, grid)
		}
		if *online {
			printOnlineComparison(env, grid)
		}
	}
}

// printOnlineComparison runs the execution-time coordination protocol on
// every (mix, budget) cell and compares it against the pre-characterized
// MixedAdaptive and the StaticCaps baseline.
func printOnlineComparison(e *env, grid *sim.Grid) {
	fmt.Println("Execution-time coordination protocol (no pre-characterization)")
	r := sim.NewRunner(e.pool, e.db)
	r.Iters = e.opt.iters
	r.Seed = e.opt.seed + 1000
	r.Obs = e.opt.sink
	r.Parallelism = e.opt.parallel
	tb := report.NewTable("", "Mix", "Budget", "Online vs StaticCaps (time)", "(energy)", "Offline MixedAdaptive (time)", "(energy)")
	for _, mr := range grid.Mixes {
		for _, lvl := range mr.Budgets.Levels() {
			base := mr.Cells[lvl.Name]["StaticCaps"]
			cell, err := r.RunOnlineCell(context.Background(), mr.Mix, lvl.Name, lvl.Power)
			if err != nil {
				log.Fatal(err)
			}
			sOn, err := sim.ComputeSavings(base, cell)
			if err != nil {
				log.Fatal(err)
			}
			sOff := mr.Savings[lvl.Name]["MixedAdaptive"]
			tb.AddRow(mr.Mix.Name, lvl.Name,
				fmt.Sprintf("%+6.2f%%", 100*sOn.Time), fmt.Sprintf("%+6.2f%%", 100*sOn.Energy),
				fmt.Sprintf("%+6.2f%%", 100*sOff.Time), fmt.Sprintf("%+6.2f%%", 100*sOff.Energy))
		}
	}
	fmt.Println(tb.String())
}

// writeCSVs exports the grid as plotting-ready CSV files.
func writeCSVs(dir string, grid *sim.Grid) {
	write := func(name string, fn func(*os.File) error) {
		path := dir + "/" + report.CSVName(name)
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := fn(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", path)
	}
	write("figure7", func(f *os.File) error { return report.WriteFigure7CSV(f, grid) })
	write("figure8", func(f *os.File) error { return report.WriteFigure8CSV(f, grid) })
}

// writeObs dumps the recorded metrics snapshot and Chrome trace.
func writeObs(opt *options) {
	if err := cliconf.DumpDir(opt.sink, opt.obsDir); err != nil {
		log.Fatal(err)
	}
}

// env bundles the evaluation context.
type env struct {
	opt   options
	pool  []*node.Node
	db    *charz.DB
	mixes []workload.Mix
}

func setup(opt options) *env {
	start := time.Now()
	// Reproduce the Section V-A2 variation-control methodology: build a
	// population large enough that its medium-frequency k-means cluster
	// (~46% of nodes) covers the experiment, survey it under 70 W caps,
	// and keep only the medium cluster. Without this step the
	// characterization's per-role maxima are inflated by the fast/slow
	// outlier nodes and the policies lose their redistribution signal —
	// the very reason the paper controls for hardware variation.
	need := opt.scale + opt.charNodes
	population := need * 24 / 10
	c, err := cluster.New(population, cpumodel.Quartz(), cpumodel.QuartzVariation(), opt.seed)
	if err != nil {
		log.Fatal(err)
	}
	medium, cl, err := c.MediumNodes()
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("variation survey: %d nodes -> clusters %v (medium kept: %d)", population, cl.Sizes, len(medium))
	if len(medium) < need {
		log.Fatalf("medium cluster has %d nodes, need %d; raise -scale headroom", len(medium), need)
	}
	charPool := medium[:opt.charNodes]
	pool := medium[opt.charNodes : opt.charNodes+opt.scale]

	var db *charz.DB
	if opt.dbPath != "" {
		if loaded, err := charz.LoadFile(opt.dbPath); err == nil {
			db = loaded
			log.Printf("loaded %d characterization entries from %s", db.Len(), opt.dbPath)
		}
	}
	if db == nil {
		log.Printf("characterizing the Table II catalog on %d nodes...", opt.charNodes)
		db, err = charz.CharacterizeAll(context.Background(), workload.Catalog(), charPool,
			charz.Options{MonitorIters: 15, BalancerIters: 50, Seed: opt.seed, NoiseSigma: -1})
		if err != nil {
			log.Fatal(err)
		}
		if opt.dbPath != "" {
			if err := db.SaveFile(opt.dbPath); err != nil {
				log.Fatal(err)
			}
			log.Printf("characterization saved to %s", opt.dbPath)
		}
	}

	mixes, err := workload.Mixes(db, opt.seed)
	if err != nil {
		log.Fatal(err)
	}
	for i := range mixes {
		mixes[i] = mixes[i].Scaled(opt.scale)
	}
	if opt.mixFilter != "" {
		var kept []workload.Mix
		for _, m := range mixes {
			if strings.EqualFold(m.Name, opt.mixFilter) {
				kept = append(kept, m)
			}
		}
		if len(kept) == 0 {
			log.Fatalf("no mix named %q", opt.mixFilter)
		}
		mixes = kept
	}
	log.Printf("setup complete in %v", time.Since(start).Round(time.Millisecond))
	return &env{opt: opt, pool: pool, db: db, mixes: mixes}
}

func runGrid(e *env) *sim.Grid {
	start := time.Now()
	r := sim.NewRunner(e.pool, e.db)
	r.Iters = e.opt.iters
	r.Seed = e.opt.seed + 1000
	r.Obs = e.opt.sink
	r.Parallelism = e.opt.parallel
	grid, err := r.Run(context.Background(), e.mixes)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("evaluation grid (%d mixes x 3 budgets x 5 policies, %d iters) in %v",
		len(e.mixes), e.opt.iters, time.Since(start).Round(time.Millisecond))
	return grid
}

func printTableI() {
	spec := cpumodel.Quartz()
	tb := report.NewTable("Table I: Quartz system properties", "Property", "Value")
	tb.AddRow("CPU", spec.Name)
	tb.AddRow("Cores Per Node", fmt.Sprintf("%d (%d used for the benchmark)", 36, spec.ActiveCores*node.SocketsPerNode))
	tb.AddRow("Operating System", "simulated substrate (TOSS 3 on the real system)")
	tb.AddRow("Thermal Design Power", fmt.Sprintf("%v per CPU socket", spec.TDP))
	tb.AddRow("Minimum RAPL Limit", fmt.Sprintf("%v per CPU socket", spec.MinPowerLimit))
	tb.AddRow("Base Frequency", spec.BaseFreq.String())
	fmt.Println(tb.String())
}

func printTableII(opt options) {
	// Table II needs the Low/High rankings, hence a characterization.
	e := setup(opt)
	tb := report.NewTable("Table II: workloads in each workload mix", "Mix", "Job", "Workload", "Nodes")
	for _, m := range e.mixes {
		for _, j := range m.Jobs {
			tb.AddRow(m.Name, j.ID, j.Config.String(), fmt.Sprintf("%d", j.Nodes))
		}
	}
	fmt.Println(tb.String())
}

func printTableIII(e *env) {
	tb := report.NewTable("Table III: power budgets for each workload mix",
		"Workload Mix", "min", "ideal", "max", "TDP of all CPUs")
	for _, m := range e.mixes {
		b, err := workload.SelectBudgets(m, e.db)
		if err != nil {
			log.Fatal(err)
		}
		tdp := units.Power(m.TotalNodes()) * 240 * units.Watt
		tb.AddRow(m.Name,
			fmt.Sprintf("%.0f kW", b.Min.Kilowatts()),
			fmt.Sprintf("%.0f kW", b.Ideal.Kilowatts()),
			fmt.Sprintf("%.0f kW", b.Max.Kilowatts()),
			fmt.Sprintf("%.0f kW", tdp.Kilowatts()))
	}
	fmt.Println(tb.String())
}

func printFigure7(g *sim.Grid) {
	fmt.Println("Figure 7: mean power used by each policy (percent of system budget)")
	order := []string{"Precharacterized", "StaticCaps", "MinimizeWaste", "JobAdaptive", "MixedAdaptive"}
	for _, mr := range g.Mixes {
		fmt.Printf("\n--- %s ---\n", mr.Mix.Name)
		for _, lvl := range []string{"min", "ideal", "max"} {
			chart := report.BarChart{Title: fmt.Sprintf("%s budget (%v)", lvl, budgetOf(mr, lvl)), Unit: "%", Scale: 150, Width: 45}
			for _, p := range order {
				cell, ok := mr.Cells[lvl][p]
				if !ok {
					continue
				}
				chart.Add(p, 100*cell.Utilization)
			}
			fmt.Print(chart.String())
		}
	}
	fmt.Println()
}

func budgetOf(mr sim.MixResult, lvl string) units.Power {
	for _, l := range mr.Budgets.Levels() {
		if l.Name == lvl {
			return l.Power
		}
	}
	return 0
}

func printFigure8(g *sim.Grid) {
	fmt.Println("Figure 8: percent improvement over the StaticCaps baseline")
	fmt.Println("(* = difference from StaticCaps significant at 95%, Welch's t-test)")
	metrics := []struct {
		name string
		pick func(sim.Savings) (value, ci float64)
		sig  func(sim.Savings) bool
	}{
		{"Time Savings", func(s sim.Savings) (float64, float64) { return 100 * s.Time, 100 * s.TimeCI },
			func(s sim.Savings) bool { return s.TimeSignificant }},
		{"Energy Savings", func(s sim.Savings) (float64, float64) { return 100 * s.Energy, 100 * s.EnergyCI },
			func(s sim.Savings) bool { return s.EnergySignificant }},
		{"EDP Savings", func(s sim.Savings) (float64, float64) { return 100 * s.EDP, 0 }, nil},
		{"FLOPS/W Increase", func(s sim.Savings) (float64, float64) { return 100 * s.FlopsPerW, 0 }, nil},
	}
	for _, mr := range g.Mixes {
		fmt.Printf("\n--- %s ---\n", mr.Mix.Name)
		tb := report.NewTable("", "Metric", "Budget", "MinimizeWaste", "JobAdaptive", "MixedAdaptive")
		for _, metric := range metrics {
			for _, lvl := range []string{"min", "ideal", "max"} {
				row := []string{metric.name, lvl}
				for _, p := range []string{"MinimizeWaste", "JobAdaptive", "MixedAdaptive"} {
					s, ok := mr.Savings[lvl][p]
					if !ok {
						row = append(row, "-")
						continue
					}
					v, ci := metric.pick(s)
					mark := ""
					if metric.sig != nil && metric.sig(s) {
						mark = "*"
					}
					if ci > 0 {
						row = append(row, fmt.Sprintf("%+6.2f%%%s ±%.2f", v, mark, ci))
					} else {
						row = append(row, fmt.Sprintf("%+6.2f%%%s", v, mark))
					}
				}
				tb.AddRow(row...)
			}
		}
		fmt.Print(tb.String())
	}
	fmt.Println()
}

func printHeadline(g *sim.Grid) {
	h := g.FindHeadline()
	fmt.Println("Headline results (MixedAdaptive vs StaticCaps)")
	fmt.Printf("  max time savings:   %5.2f%% (±%.2f) at %s/%s  [paper: up to 7%% at HighPower/min]\n",
		100*h.MaxTimeSavings.Time, 100*h.MaxTimeSavings.TimeCI, h.MaxTimeSavings.Mix, h.MaxTimeSavings.Budget)
	fmt.Printf("  max energy savings: %5.2f%% (±%.2f) at %s/%s  [paper: up to 11%% at WastefulPower/max]\n",
		100*h.MaxEnergySavings.Energy, 100*h.MaxEnergySavings.EnergyCI, h.MaxEnergySavings.Mix, h.MaxEnergySavings.Budget)
}
