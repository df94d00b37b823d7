// Command scalebench gates the 100k-node scale push: it times the facility
// simulation's scale path (hierarchical replan rounds, incremental cap
// writes) against the compat path (the flat replan over every job at once)
// across cluster sizes, and writes the comparison to BENCH_scale.json.
//
// The compat lane runs only up to -compatmax nodes (default 10000) — the
// point of the scale path is that the compat path stops being usable above
// that — while the scale lane runs every size, including 100000 nodes for a
// simulated week. A third lane re-runs the scale path with the parallel
// replan pipeline (-parallel workers) and verifies, in-process, that its
// Result is byte-identical to the sequential scale lane's before reporting
// its wall clock: the parallel lane is only a speedup if it is also exact.
// The headline number is the speedup at the largest size both exact lanes
// ran.
//
// Usage:
//
//	scalebench [-sizes 1000,10000,100000] [-days 7] [-compatmax 10000]
//	           [-telemetry 30m] [-interarrival 3m] [-seed 7] [-parallel N]
//	           [-out BENCH_scale.json] [-cpuprofile prof.out] [-memprofile mem.out]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"powerstack/internal/charz"
	"powerstack/internal/cliconf"
	"powerstack/internal/cluster"
	"powerstack/internal/cpumodel"
	"powerstack/internal/facility"
	"powerstack/internal/kernel"
	"powerstack/internal/node"
	"powerstack/internal/policy"
	"powerstack/internal/units"
)

type laneReport struct {
	Seconds          float64 `json:"seconds"`
	Parallelism      int     `json:"parallelism,omitempty"`
	EventsDispatched int     `json:"events_dispatched"`
	Submitted        int     `json:"submitted"`
	Completed        int     `json:"completed"`
	MeanPowerW       float64 `json:"mean_power_watts"`
	TotalEnergyJ     float64 `json:"total_energy_joules"`
}

type sizeReport struct {
	Nodes    int         `json:"nodes"`
	Compat   *laneReport `json:"compat,omitempty"`
	Scale    *laneReport `json:"scale"`
	Parallel *laneReport `json:"parallel,omitempty"`
	Speedup  float64     `json:"speedup,omitempty"`
	// ParallelSpeedup is the sequential scale lane's wall clock over the
	// parallel lane's. It tracks GOMAXPROCS: on a single-core host the
	// pipeline runs inline and the ratio sits near 1.
	ParallelSpeedup float64 `json:"parallel_speedup,omitempty"`
	// ParallelExact records that the parallel lane's Result was verified
	// byte-identical to the sequential scale lane's.
	ParallelExact bool `json:"parallel_exact,omitempty"`
}

type report struct {
	DurationHours     float64 `json:"duration_hours"`
	TelemetrySeconds  float64 `json:"telemetry_every_seconds"`
	InterarrivalHours float64 `json:"interarrival_hours"`
	Seed              uint64  `json:"seed"`
	// GOMAXPROCS is the host's scheduler width for the run — the context
	// every parallel-lane wall clock must be read in.
	GOMAXPROCS int          `json:"gomaxprocs"`
	Sizes      []sizeReport `json:"sizes"`
	// SpeedupAtLargestCommon is the headline: compat seconds over scale
	// seconds at the largest size both lanes completed.
	SpeedupAtLargestCommon float64 `json:"speedup_at_largest_common"`
}

func env(nNodes int) ([]*node.Node, *charz.DB, []kernel.Config, error) {
	c, err := cluster.New(nNodes+4, cpumodel.Quartz(), cpumodel.QuartzVariation(), 41)
	if err != nil {
		return nil, nil, nil, err
	}
	scratch := c.Nodes()[nNodes:]
	workloads := []kernel.Config{
		{Intensity: 8, Vector: kernel.YMM, Imbalance: 1},
		{Intensity: 0.5, Vector: kernel.YMM, WaitingPct: 50, Imbalance: 2},
		{Intensity: 32, Vector: kernel.XMM, Imbalance: 1},
	}
	db, err := charz.CharacterizeAll(context.Background(), workloads, scratch, charz.Options{
		MonitorIters: 5, BalancerIters: 30, Seed: 3, NoiseSigma: 0,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return c.Nodes()[:nNodes], db, workloads, nil
}

// runLane runs one lane and returns its timing plus the canonical Result
// JSON, the byte-identity token the parallel lane is checked against.
func runLane(nNodes int, mode string, parallelism int, duration, telemetry, interarrival time.Duration, seed uint64) (*laneReport, string, error) {
	// Fresh pool per lane: the simulation mutates node state.
	nodes, db, workloads, err := env(nNodes)
	if err != nil {
		return nil, "", err
	}
	cfg := facility.Config{
		ScaleMode:        mode,
		Parallelism:      parallelism,
		Nodes:            nodes,
		DB:               db,
		Policy:           policy.MixedAdaptive{},
		SystemBudget:     units.Power(nNodes) * 200 * units.Watt,
		MeanInterarrival: interarrival,
		// Long jobs at sizes that keep a large slice of the pool busy, so
		// every replan round re-caps a meaningful host set.
		MinJobIterations: 700000,
		MaxJobIterations: 1000000,
		JobSizes:         []int{8, 16, 32},
		Workloads:        workloads,
		Duration:         duration,
		Tick:             telemetry,
		Seed:             seed,
	}
	// The previous lane's discarded pool is garbage; collect it now so its
	// sweep cost doesn't land inside this lane's timed window.
	runtime.GC()
	lane := mode
	if parallelism > 0 {
		lane = fmt.Sprintf("par:%d", parallelism)
	}
	log.Printf("%6d nodes, %-6s lane: simulating %v...", nNodes, lane, duration)
	start := time.Now()
	res, err := facility.Run(context.Background(), cfg)
	if err != nil {
		return nil, "", err
	}
	wall := time.Since(start)
	canon, err := json.Marshal(res)
	if err != nil {
		return nil, "", err
	}
	lr := &laneReport{
		Seconds:          wall.Seconds(),
		Parallelism:      parallelism,
		EventsDispatched: res.EventsDispatched,
		Submitted:        res.Submitted,
		Completed:        res.Completed,
		MeanPowerW:       res.MeanPower.Watts(),
		TotalEnergyJ:     res.TotalEnergy.Joules(),
	}
	log.Printf("%6d nodes, %-6s lane: %v wall, %d events, %d/%d jobs completed",
		nNodes, lane, wall.Round(time.Millisecond), lr.EventsDispatched, lr.Completed, lr.Submitted)
	return lr, string(canon), nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("scalebench: ")
	sizes := flag.String("sizes", "1000,10000,100000", "comma-separated cluster sizes")
	days := flag.Float64("days", 7, "simulated span in days")
	compatMax := flag.Int("compatmax", 10000, "largest size the compat lane runs at")
	telemetry := flag.Duration("telemetry", 30*time.Minute, "telemetry sampling cadence")
	interarrival := flag.Duration("interarrival", 3*time.Minute, "mean job inter-arrival time")
	seed := flag.Uint64("seed", 7, "random seed")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "replan pipeline workers for the parallel lane (0 skips the lane)")
	out := flag.String("out", "BENCH_scale.json", "output JSON path")
	profiles := cliconf.RegisterProfiles(flag.CommandLine)
	flag.Parse()

	if err := profiles.Start(); err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := profiles.Stop(); err != nil {
			log.Fatal(err)
		}
	}()

	var ns []int
	for _, f := range strings.Split(*sizes, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			log.Fatalf("-sizes: bad size %q", f)
		}
		ns = append(ns, n)
	}

	duration := time.Duration(*days * 24 * float64(time.Hour))
	rep := report{
		DurationHours:     *days * 24,
		TelemetrySeconds:  telemetry.Seconds(),
		InterarrivalHours: interarrival.Hours(),
		Seed:              *seed,
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
	}
	for _, n := range ns {
		sr := sizeReport{Nodes: n}
		if n <= *compatMax {
			lr, _, err := runLane(n, facility.ScaleCompat, 0, duration, *telemetry, *interarrival, *seed)
			if err != nil {
				log.Fatal(err)
			}
			sr.Compat = lr
		}
		lr, scaleCanon, err := runLane(n, facility.ScaleOn, 0, duration, *telemetry, *interarrival, *seed)
		if err != nil {
			log.Fatal(err)
		}
		sr.Scale = lr
		if *parallel > 0 {
			pr, parCanon, err := runLane(n, facility.ScaleOn, *parallel, duration, *telemetry, *interarrival, *seed)
			if err != nil {
				log.Fatal(err)
			}
			if parCanon != scaleCanon {
				log.Fatalf("%d nodes: parallel lane (workers=%d) diverged from sequential scale lane", n, *parallel)
			}
			sr.Parallel = pr
			sr.ParallelExact = true
			if pr.Seconds > 0 {
				sr.ParallelSpeedup = sr.Scale.Seconds / pr.Seconds
				log.Printf("%6d nodes: parallel lane exact, %.2fx vs sequential scale (workers=%d, GOMAXPROCS=%d)",
					n, sr.ParallelSpeedup, *parallel, rep.GOMAXPROCS)
			}
		}
		if sr.Compat != nil && sr.Scale.Seconds > 0 {
			sr.Speedup = sr.Compat.Seconds / sr.Scale.Seconds
			rep.SpeedupAtLargestCommon = sr.Speedup
			log.Printf("%6d nodes: %.2fx speedup (compat %.2fs / scale %.2fs)",
				n, sr.Speedup, sr.Compat.Seconds, sr.Scale.Seconds)
		}
		rep.Sizes = append(rep.Sizes, sr)
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}
