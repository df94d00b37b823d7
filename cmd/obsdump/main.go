// Command obsdump exercises the full power management stack with
// observability enabled and dumps the resulting artifacts: a Prometheus
// text metrics snapshot, a Chrome trace_event JSON (open it in
// chrome://tracing or https://ui.perfetto.dev), and optionally the raw
// decision-event journal.
//
// The run drives every instrumented layer at once: two asymmetric jobs
// execute under the execution-time coordination protocol (grant and
// regrant events, balancer reallocations, RAPL limit writes) while a
// telemetry watchdog samples the node hierarchy and clamps offenders
// against a deliberately tight budget (violation and clamp events).
//
// Usage:
//
//	obsdump [-nodes 16] [-iters 30] [-budget 0.8] [-watchdog 0.9]
//	        [-metrics -] [-trace powerstack-trace.json] [-events path]
//	        [-spans path] [-serve localhost:6060] [-seed 1]
//
// Subcommands operate on previously written artifacts:
//
//	obsdump spans  [-in spans.jsonl]      render a span log as a tree
//	obsdump hist   [-in metrics.txt]      summarize histogram quantiles
//	obsdump flight [-dir out] flight.json unpack a flight-recorder artifact
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"time"

	"powerstack/internal/bsp"
	"powerstack/internal/cluster"
	"powerstack/internal/coordinator"
	"powerstack/internal/cpumodel"
	"powerstack/internal/kernel"
	"powerstack/internal/obs"
	"powerstack/internal/telemetry"
	"powerstack/internal/units"
	"powerstack/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("obsdump: ")
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "spans":
			cmdSpans(os.Args[2:])
			return
		case "hist":
			cmdHist(os.Args[2:])
			return
		case "flight":
			cmdFlight(os.Args[2:])
			return
		}
	}
	nodes := flag.Int("nodes", 16, "total nodes, split across the two demo jobs")
	iters := flag.Int("iters", 30, "bulk-synchronous iterations to run")
	budgetFrac := flag.Float64("budget", 0.8, "coordinator budget as a fraction of total TDP")
	watchdogFrac := flag.Float64("watchdog", 0.9, "watchdog budget as a fraction of the draw observed early in the run (<=0 disables the watchdog)")
	metricsPath := flag.String("metrics", "-", "write the Prometheus metrics snapshot here (- = stdout)")
	tracePath := flag.String("trace", "powerstack-trace.json", "write the Chrome trace JSON here (empty = skip)")
	eventsPath := flag.String("events", "", "also write the raw event journal JSON here")
	spansPath := flag.String("spans", "", "also write the span log JSONL here (render with obsdump spans)")
	serveAddr := flag.String("serve", "", "serve /metrics, /events, /trace, /debug/pprof on this address after the run and block")
	seed := flag.Uint64("seed", 1, "random seed")
	flag.Parse()

	if *nodes < 4 || *nodes%2 != 0 {
		log.Fatalf("-nodes must be an even number >= 4, got %d", *nodes)
	}

	sink := obs.New()
	mix := workload.Mix{Name: "obsdump", Jobs: []workload.JobSpec{
		{ID: "waiting", Config: kernel.Config{Intensity: 4, Vector: kernel.YMM, WaitingPct: 75, Imbalance: 3}, Nodes: *nodes / 2},
		{ID: "bound", Config: kernel.Config{Intensity: 32, Vector: kernel.YMM, Imbalance: 1}, Nodes: *nodes / 2},
	}}

	c, err := cluster.New(*nodes, cpumodel.Quartz(), cpumodel.QuartzVariation(), *seed)
	if err != nil {
		log.Fatal(err)
	}
	pool := c.Nodes()
	for _, n := range pool {
		n.SetObs(sink)
	}

	var jobs []*bsp.Job
	rest := pool
	for i, js := range mix.Jobs {
		j, err := bsp.NewJob(js.ID, js.Config, rest[:js.Nodes], *seed+uint64(i)*31)
		if err != nil {
			log.Fatal(err)
		}
		rest = rest[js.Nodes:]
		jobs = append(jobs, j)
	}

	budget := units.Power(*budgetFrac) * cluster.TotalTDP(pool)
	coord, err := coordinator.New(budget, jobs, true)
	if err != nil {
		log.Fatal(err)
	}
	coord.SetObs(sink)

	// Root the demo's span tree so obsdump -spans output renders as one
	// trace: demo → per-iteration coord_iter spans.
	rootSpan := sink.StartSpan(obs.SpanContext{}, "obsdump", "demo").
		SetIter(*iters).SetValue(budget.Watts())
	coord.SpanParent = rootSpan.Ctx()

	// The watchdog samples the node hierarchy between iterations. Its
	// budget is derived from the draw observed early in the run so clamp
	// enforcement demonstrably fires regardless of scale.
	root, err := telemetry.BuildHierarchy(pool, 8)
	if err != nil {
		log.Fatal(err)
	}
	var wd *telemetry.Watchdog
	now := time.Now()
	root.Sample(now) // prime the energy trackers

	log.Printf("running %d iterations of mix %s on %d nodes under %v", *iters, mix.Name, *nodes, budget)
	start := time.Now()
	for k := 0; k < *iters; k++ {
		res, err := coord.Run(context.Background(), 1)
		if err != nil {
			log.Fatal(err)
		}
		// Advance simulated wall time by the iteration's elapsed time so
		// the watchdog sees the true mean power.
		now = now.Add(time.Duration(res.IterTimes[0] * float64(time.Second)))
		if wd == nil && *watchdogFrac > 0 && k == 1 {
			p := root.Sample(now)
			wd, err = telemetry.NewWatchdog(root, units.Power(float64(p)**watchdogFrac))
			if err != nil {
				log.Fatal(err)
			}
			wd.Obs = sink
			log.Printf("watchdog armed at %v (observed draw %v)", wd.Budget, p)
			continue
		}
		if wd != nil {
			if _, _, err := wd.Check(now); err != nil {
				log.Fatal(err)
			}
		}
	}
	rootSpan.End()
	log.Printf("run complete in %v", time.Since(start).Round(time.Millisecond))
	if wd != nil {
		log.Printf("watchdog: %d violations, %d clamps", wd.Violations, wd.Clamps)
	}
	log.Printf("journal: %d events recorded (%d retained, %d dropped)",
		sink.Journal.Total(), sink.Journal.Total()-sink.Journal.Dropped(), sink.Journal.Dropped())

	if err := dump(sink, *metricsPath, *tracePath, *eventsPath, *spansPath); err != nil {
		log.Fatal(err)
	}

	if *serveAddr != "" {
		srv, err := obs.Serve(*serveAddr, sink)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("serving debug endpoints on http://%s (ctrl-c to stop)", srv.Addr())
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
		srv.Close() //nolint:errcheck // exiting anyway
	}
}

// dump writes the run artifacts, treating "-" as stdout and "" as skip.
func dump(sink *obs.Sink, metricsPath, tracePath, eventsPath, spansPath string) error {
	to := func(path, what string, write func(io.Writer) error) error {
		if path == "" {
			return nil
		}
		if path == "-" {
			fmt.Printf("--- %s ---\n", what)
			return write(os.Stdout)
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close() //nolint:errcheck // write error takes precedence
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		log.Printf("wrote %s to %s", what, path)
		return nil
	}
	if err := to(metricsPath, "metrics snapshot", sink.WritePrometheus); err != nil {
		return err
	}
	if err := to(tracePath, "Chrome trace", sink.WriteTrace); err != nil {
		return err
	}
	if err := to(eventsPath, "event journal", sink.Journal.WriteJSON); err != nil {
		return err
	}
	return to(spansPath, "span log", sink.WriteSpans)
}
