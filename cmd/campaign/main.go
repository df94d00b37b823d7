// Command campaign runs a multi-seed facility sweep: a scenario matrix
// (seeds × interarrival rates × budgets × policies × optional fault lanes)
// fanned across a bounded worker pool, with per-group statistics (mean,
// bootstrap 95% CI) and Welch policy comparisons in the report. The
// serialized report is byte-identical at any -parallel setting.
//
// Characterization runs once through a process-wide cache; with -cachefile
// the cache persists across invocations, so repeat campaigns on the same
// platform skip characterization entirely.
//
// Usage:
//
//	campaign [-nodes N] [-hours H] [-seeds N]
//	         [-interarrivals 30m,45m] [-budgets "4 kW,6 kW"]
//	         [-policies all|StaticCaps,MixedAdaptive] [-parallel N]
//	         [-cachefile charz.json] [-format json|csv] [-out report.json]
//	         [-crashes N] [-msrfaults N] [-dropouts N] [-slownodes N]
//	         [-budgetdrops N] [-faultseed N]
//	         [-shockat 2h] [-shockfrac 0.5] [-shockdur 1h]
//	         [-emergencies preempt,throttle,kill] [-checkpoint K]
//	         [-flightdir flights/] [-debug addr]
//	         [-shard i/n] [-merge shard0.json,shard1.json]
//
// Chaos flags add a "chaos" fault lane next to the default "clean" lane, so
// every policy is ranked under both.
//
// Shock flags add a "shock" budget-drop lane: at -shockat the facility
// budget drops to -shockfrac of its value for -shockdur. Combined with
// -emergencies (a sweep of the budget-emergency response), every response
// runs the identical shock on the identical seeds, and the report's
// emergency comparisons rank preempt vs throttle vs kill with seed-paired
// t tests. -checkpoint sets the jobs' checkpoint cadence in iterations.
//
// -flightdir enables the flight recorder: every failed scenario, and every
// successful one whose result looks anomalous (quarantines or requeues),
// writes a self-contained post-mortem artifact into the directory. Inspect
// artifacts with "obsdump flight". Flight capture never alters the report.
//
// -shard i/n runs only the scenarios whose matrix index ≡ i (mod n) and
// writes a partial report; run all n shards (identical flags except -shard)
// on separate machines, then join them with -merge — the merged report is
// byte-identical to a single-process run of the full matrix.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"strings"
	"time"

	"powerstack"
	"powerstack/internal/cliconf"
	"powerstack/internal/kernel"
	"powerstack/internal/units"
	"powerstack/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("campaign: ")
	nNodes := flag.Int("nodes", 16, "cluster size")
	hours := flag.Float64("hours", 8, "simulated span in hours")
	seeds := flag.Int("seeds", 5, "replications per scenario cell (seeds 1..N)")
	interarrivals := flag.String("interarrivals", "30m", "comma-separated mean job inter-arrival times")
	budgets := flag.String("budgets", "", "comma-separated system budgets (e.g. \"4 kW,6 kW\"; default 240 W/node)")
	policies := flag.String("policies", "all", "comma-separated policy names, or \"all\"")
	parallel := flag.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS); the report is identical at any setting")
	cacheFile := flag.String("cachefile", "", "characterization cache path (loaded if present, saved after)")
	format := flag.String("format", "json", "report format: json or csv")
	outPath := flag.String("out", "", "report destination (default stdout)")
	faultFlags := cliconf.RegisterFaults(flag.CommandLine)
	shockAt := flag.Duration("shockat", 0, "shock lane: budget-drop onset (0 disables the lane)")
	shockFrac := flag.Float64("shockfrac", 0.5, "shock lane: fraction of the budget kept during the drop")
	shockDur := flag.Duration("shockdur", 0, "shock lane: drop duration (0 = until the end of the run)")
	emergencies := flag.String("emergencies", "", "comma-separated budget-emergency responses to sweep (e.g. preempt,throttle,kill)")
	checkpoint := flag.Int("checkpoint", workload.CheckpointInterval(2000, 20000), "job checkpoint cadence in iterations (0 disables)")
	flightDir := flag.String("flightdir", "", "write flight-recorder artifacts for failed/anomalous scenarios here")
	debugAddr := flag.String("debug", "", "serve the live debug surface (/metrics, /stream/*, pprof) here during the sweep (\":0\" picks a port)")
	shardSpec := flag.String("shard", "", "run one shard of the matrix, as \"i/n\" (shard i of n); the partial report merges with -merge")
	mergePaths := flag.String("merge", "", "merge comma-separated shard report files into the full report (no simulation)")
	flag.Parse()
	ctx := context.Background()

	if *mergePaths != "" {
		if err := mergeReports(*mergePaths, *outPath, *format); err != nil {
			log.Fatal(err)
		}
		return
	}
	shard, shards, err := parseShard(*shardSpec)
	if err != nil {
		log.Fatal(err)
	}

	if *seeds <= 0 {
		log.Fatal("-seeds must be positive")
	}
	pols, err := parsePolicies(*policies)
	if err != nil {
		log.Fatal(err)
	}
	ias, err := parseDurations(*interarrivals)
	if err != nil {
		log.Fatal(err)
	}
	var buds []units.Power
	if *budgets == "" {
		buds = []units.Power{units.Power(*nNodes) * 240 * units.Watt}
	} else if buds, err = parsePowers(*budgets); err != nil {
		log.Fatal(err)
	}

	sys, err := powerstack.NewSystem(powerstack.Options{ClusterSize: *nNodes + 8, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	if *debugAddr != "" {
		srv, err := sys.ServeDebug(ctx, *debugAddr)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("debug surface on http://%s", srv.Addr())
		defer func() {
			drain, cancel := context.WithTimeout(ctx, 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(drain); err != nil {
				log.Printf("debug drain: %v", err)
			}
		}()
	}
	workloads := []kernel.Config{
		{Intensity: 0.25, Vector: kernel.YMM, Imbalance: 1},
		{Intensity: 8, Vector: kernel.YMM, Imbalance: 1},
		{Intensity: 32, Vector: kernel.YMM, Imbalance: 1},
		{Intensity: 1, Vector: kernel.YMM, WaitingPct: 50, Imbalance: 2},
		{Intensity: 16, Vector: kernel.YMM, WaitingPct: 75, Imbalance: 3},
		{Intensity: 8, Vector: kernel.XMM, Imbalance: 1},
	}

	cache := powerstack.NewCharacterizationCache()
	if *cacheFile != "" {
		if loaded, err := powerstack.LoadCharacterizationCache(*cacheFile); err == nil {
			cache = loaded
			log.Printf("loaded characterization cache (%d entries) from %s", cache.Len(), *cacheFile)
		} else if !os.IsNotExist(err) {
			log.Fatal(err)
		}
	}
	log.Printf("characterizing %d workloads...", len(workloads))
	start := time.Now()
	if err := sys.CharacterizeCached(ctx, workloads, powerstack.QuickCharacterization(), cache); err != nil {
		log.Fatal(err)
	}
	hits, misses := cache.Stats()
	log.Printf("characterization done in %v (%d cache hits, %d misses)",
		time.Since(start).Round(time.Millisecond), hits, misses)
	if *cacheFile != "" {
		if err := cache.SaveFile(*cacheFile); err != nil {
			log.Fatal(err)
		}
	}

	var jobSizes []int
	for _, sz := range []int{2, 4, 8, 16} {
		if sz <= *nNodes {
			jobSizes = append(jobSizes, sz)
		}
	}

	duration := time.Duration(*hours * float64(time.Hour))
	cfg := powerstack.CampaignConfig{
		Base: powerstack.FacilityConfig{
			MinJobIterations: 2000,
			MaxJobIterations: 20000,
			JobSizes:         jobSizes,
			Workloads:        workloads,
			Duration:         duration,
			Tick:             time.Minute,
			CheckpointEvery:  *checkpoint,
		},
		Interarrivals: ias,
		Budgets:       buds,
		Policies:      pols,
		Parallelism:   *parallel,
		Shard:         shard,
		Shards:        shards,
		FlightDir:     *flightDir,
	}
	if *emergencies != "" {
		for _, name := range strings.Split(*emergencies, ",") {
			cfg.Emergencies = append(cfg.Emergencies, powerstack.EmergencyPolicy(strings.TrimSpace(name)))
		}
	}
	if *flightDir != "" {
		// Flight artifacts capture the sink's metrics/journal/spans at the
		// moment of failure; without a sink they would be near-empty.
		sys.EnableObservability()
	}
	for s := 1; s <= *seeds; s++ {
		cfg.Seeds = append(cfg.Seeds, uint64(s))
	}
	if faultFlags.Any() {
		var ids []string
		for _, n := range sys.Pool {
			ids = append(ids, n.ID)
		}
		plan := faultFlags.Plan(ids, duration)
		cfg.FaultPlans = []powerstack.CampaignFaultPlan{{Name: "clean"}, {Name: "chaos", Plan: plan}}
	}
	if *shockAt > 0 {
		if len(cfg.FaultPlans) == 0 {
			cfg.FaultPlans = []powerstack.CampaignFaultPlan{{Name: "clean"}}
		}
		cfg.FaultPlans = append(cfg.FaultPlans, powerstack.CampaignFaultPlan{
			Name: "shock",
			Plan: &powerstack.FaultPlan{Injections: []powerstack.FaultInjection{{
				Kind:     powerstack.FaultBudgetDrop,
				At:       *shockAt,
				Duration: *shockDur,
				Factor:   *shockFrac,
			}}},
		})
	}

	nScen := len(cfg.Seeds) * len(ias) * len(buds) * len(pols)
	if len(cfg.FaultPlans) > 0 {
		nScen *= len(cfg.FaultPlans)
	}
	if len(cfg.Emergencies) > 0 {
		nScen *= len(cfg.Emergencies)
	}
	if shards > 1 {
		log.Printf("running shard %d/%d of %d scenarios over %d nodes (%v each)...", shard, shards, nScen, len(sys.Pool), duration)
	} else {
		log.Printf("running %d scenarios over %d nodes (%v each)...", nScen, len(sys.Pool), duration)
	}
	start = time.Now()
	rep, err := sys.RunCampaign(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("campaign done in %v wall time", time.Since(start).Round(time.Millisecond))

	var w io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	switch *format {
	case "json":
		err = rep.WriteJSON(w)
	case "csv":
		err = rep.WriteCSV(w)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		log.Fatal(err)
	}

	for _, g := range rep.Groups {
		log.Printf("%-16s ia=%-6s budget=%-8s fault=%-6s energy %.1f kJ ±%.1f  wait %.0fs  completed %.1f",
			g.Policy, g.Interarrival, g.Budget, g.Fault,
			g.Energy.Mean/1e3, g.Energy.CI95/1e3, g.QueueWait.Mean, g.Completed.Mean)
	}
	for _, c := range rep.Comparisons {
		log.Printf("%s vs %s [ia=%s budget=%s fault=%s]: energy %+.2f%%%s, queue wait %+.2f%%%s",
			c.Policy, c.Baseline, c.Interarrival, c.Budget, c.Fault,
			100*c.EnergyChange, significance(c.EnergyChange, c.EnergySignificant, c.EnergyPairedSignificant),
			100*c.QueueWaitChange, significance(c.QueueWaitChange, c.QueueWaitSignificant, c.WaitPairedSignificant))
	}
	for _, e := range rep.EmergencyComparisons {
		log.Printf("emergency %s vs %s [%s fault=%s]: completed %+.2f%%%s, energy %+.2f%%, preempted %.1f, killed %.1f",
			e.Emergency, e.Baseline, e.Policy, e.Fault,
			100*e.CompletedChange, significance(e.CompletedChange, false, e.CompletedPairedSignificant),
			100*e.EnergyChange, e.MeanPreempted, e.MeanKilled)
	}
}

// negligibleChange is the relative change below which the comparison log
// tags a statistically significant difference as too small to matter: at
// a few seeds the paired test flags energy shifts of 0.01%.
const negligibleChange = 0.001

// significance tags a relative change in the comparison log with the test
// that found it significant (Welch first, then seed-paired), or as below
// negligibleChange when either did but the change is smaller.
func significance(change float64, welch, paired bool) string {
	switch {
	case !welch && !paired:
		return ""
	case math.Abs(change) < negligibleChange:
		return fmt.Sprintf(" (significant, below %g%%)", 100*negligibleChange)
	case welch:
		return " (significant)"
	}
	return " (significant paired)"
}

// parseShard parses an "i/n" shard spec; empty disables sharding.
func parseShard(s string) (shard, shards int, err error) {
	if s == "" {
		return 0, 0, nil
	}
	if _, err := fmt.Sscanf(s, "%d/%d", &shard, &shards); err != nil {
		return 0, 0, fmt.Errorf("-shard %q: want \"i/n\"", s)
	}
	if shards < 2 || shard < 0 || shard >= shards {
		return 0, 0, fmt.Errorf("-shard %q: want 0 <= i < n, n >= 2", s)
	}
	return shard, shards, nil
}

// mergeReports reads the shard report files and writes the merged full
// report — the byte-identical equivalent of one single-process run.
func mergeReports(paths, outPath, format string) error {
	var shards []*powerstack.CampaignReport
	for _, p := range strings.Split(paths, ",") {
		f, err := os.Open(strings.TrimSpace(p))
		if err != nil {
			return err
		}
		rep, err := powerstack.ReadCampaignReport(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		shards = append(shards, rep)
	}
	rep, err := powerstack.MergeCampaignReports(shards...)
	if err != nil {
		return err
	}
	var w io.Writer = os.Stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	log.Printf("merged %d shard reports (%d scenarios)", len(shards), len(rep.Scenarios))
	switch format {
	case "json":
		return rep.WriteJSON(w)
	case "csv":
		return rep.WriteCSV(w)
	default:
		return fmt.Errorf("unknown format %q", format)
	}
}

func parsePolicies(s string) ([]powerstack.Policy, error) {
	if strings.EqualFold(s, "all") {
		return powerstack.Policies(), nil
	}
	var out []powerstack.Policy
	for _, name := range strings.Split(s, ",") {
		p, err := powerstack.PolicyByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func parseDurations(s string) ([]time.Duration, error) {
	var out []time.Duration
	for _, f := range strings.Split(s, ",") {
		d, err := time.ParseDuration(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

func parsePowers(s string) ([]units.Power, error) {
	var out []units.Power
	for _, f := range strings.Split(s, ",") {
		p, err := units.ParsePower(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}
