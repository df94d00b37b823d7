// Command perfbench is the repository benchmark. It measures the program
// from outside: it times calls into the public functions of the simulation
// stack, wraps the power policy it hands the program, and reads the
// counters and histograms of the program's obs.Sink. It adds no
// instrumentation inside the program.
//
// Usage (from the repository root):
//
//	perfbench --workload paper_grid|fleet_100k|campaign_chaos
//	          --seed N --seconds S --trace 0|1
//
// Every workload sets itself up several times (setup_s is the median),
// then runs whole units of work (a grid, a fleet run, a campaign matrix)
// until S seconds have passed. Each unit's simulated output is digested and
// must match the first unit's. With --trace 1 the run instead measures one
// untraced unit and one traced unit, checks that both produce the same
// output, and prints the per-layer metrics; the spans are written to
// $CARGO_TARGET_DIR/trace-<workload>-<seed>.jsonl (.bench_build when unset).
//
// The last line of standard output is the result object
// {"correct","attempted","failed","metrics"}; the line before it carries the
// host context, the digest and the exact simulated statistics.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"powerstack/internal/obs"
)

// setupRepeats is how many times an untraced run sets its workload up;
// setup_s is the median.
const setupRepeats = 3

// bench is one workload.
type bench interface {
	// workers is the worker count the workload runs its program at.
	workers() int
	// setup builds the state units run on. In the traced run it records
	// its phases on tr, wires sink into the layers that take one and
	// wraps the policies it hands the program with alloc; otherwise all
	// three are nil.
	setup(ctx context.Context, tr *tracer, sink *obs.Sink, alloc *allocStats) error
	// unit runs one unit of work on the set-up state, recording the calls
	// it times on tr.
	unit(ctx context.Context, tr *tracer) (*unitResult, error)
	// reusable reports whether units can run back to back on one set-up;
	// otherwise every unit sets up afresh.
	reusable() bool
	// release drops the set-up state, so the next set-up does not run
	// beside it.
	release()
	// publishesDone reports whether units publish the cell or scenario
	// finish events the traced run times them by.
	publishesDone() bool
}

// unitResult is one unit of work.
type unitResult struct {
	// work is the work completed (cells, simulated seconds, scenarios);
	// spent the time the timed calls that completed it took.
	work  float64
	spent meter
	// attempted operations, failed ones (errors and failed checks), and
	// the descriptions of the failures.
	attempted, failed int
	failures          []string
	// digest is a hash of the unit's canonical simulated output; stats
	// are its exact simulated statistics.
	digest string
	stats  map[string]float64
	// layer holds per-layer metrics only the workload can compute.
	layer map[string]float64
}

// check records one correctness or validity check.
func (u *unitResult) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	u.failed++
	if len(u.failures) < 20 {
		u.failures = append(u.failures, fmt.Sprintf(format, args...))
	}
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// small selects the workloads' small-size variants, which the tests
	// run through the same code.
	small bool
	// outDir receives the traced run's span file.
	outDir string
}

func newBench(opt options) (bench, error) {
	switch opt.workload {
	case "paper_grid":
		return newPaperGrid(opt), nil
	case "fleet_100k":
		return newFleet(opt), nil
	case "campaign_chaos":
		return newCampaign(opt), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want paper_grid, fleet_100k or campaign_chaos)", opt.workload)
}

func main() {
	var opt options
	var traceFlag int
	flag.StringVar(&opt.workload, "workload", "", "workload: paper_grid, fleet_100k or campaign_chaos")
	flag.Uint64Var(&opt.seed, "seed", 1, "workload seed")
	flag.Float64Var(&opt.seconds, "seconds", 10, "seconds to measure for")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer measurement")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	opt.trace = traceFlag == 1
	opt.outDir = defaultOutDir()
	res, err := run(context.Background(), opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	w := bufio.NewWriter(os.Stdout)
	ctxLine, err := json.Marshal(res.context)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(w, "context %s\n", ctxLine)
	for _, f := range res.failures {
		fmt.Fprintf(w, "check failed: %s\n", f)
	}
	final, err := json.Marshal(res.final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(w, "%s\n", final)
	if err := w.Flush(); err != nil {
		os.Exit(1)
	}
}

// defaultOutDir keeps the trace files with the build outputs.
func defaultOutDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type runResult struct {
	context  map[string]any
	failures []string
	final    finalLine
}

func run(ctx context.Context, opt options) (*runResult, error) {
	b, err := newBench(opt)
	if err != nil {
		return nil, err
	}
	if opt.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	if opt.trace {
		return runTraced(ctx, b, opt)
	}
	return runTimed(ctx, b, opt)
}

// runTimed is the end-to-end measurement: tracing off, the set-up repeated,
// whole units until the time is up.
func runTimed(ctx context.Context, b bench, opt options) (*runResult, error) {
	start := time.Now()
	var setups, setupCPU []float64
	setup := func() error {
		b.release()
		runtime.GC()
		var m meter
		if err := m.time(func() error { return b.setup(ctx, nil, nil, nil) }); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, m.wall.Seconds())
		setupCPU = append(setupCPU, m.cpu.Seconds())
		return nil
	}
	for i := 0; i < setupRepeats; i++ {
		if err := setup(); err != nil {
			return nil, err
		}
	}
	// Whole units run until the next one would end further past the
	// measuring time than short of it.
	measure := time.Duration(opt.seconds * float64(time.Second))
	begin := time.Now()
	total0, steal0 := hostTicks()
	var units []*unitResult
	for {
		if len(units) > 0 && !b.reusable() {
			if err := setup(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		u, err := b.unit(ctx, nil)
		if err != nil {
			return nil, err
		}
		if len(units) > 0 {
			u.check(u.digest == units[0].digest, "unit %d output digest %s differs from unit 0's %s", len(units), u.digest, units[0].digest)
		}
		units = append(units, u)
		if elapsed := time.Since(begin); elapsed+elapsed/time.Duration(2*len(units)) >= measure {
			break
		}
	}

	// Throughput is work per wall second, so parallel gains and idle
	// workers show. Units repeat identical work, so the median unit rate
	// discards a unit that a burst of host contention slowed.
	var rates, cpuRates []float64
	attempted, failed := 0, 0
	var failures []string
	for _, u := range units {
		rates = append(rates, u.work/u.spent.wall.Seconds())
		cpuRates = append(cpuRates, u.work/u.spent.cpu.Seconds())
		attempted += u.attempted
		failed += u.failed
		failures = append(failures, u.failures...)
	}
	failed = min(failed, attempted)
	metrics := map[string]float64{
		"setup_s":      quantile(setups, 0.5),
		"throughput":   quantile(rates, 0.5),
		"peak_rss_mb":  peakRSSMB(),
		"success_rate": 1 - float64(failed)/float64(attempted),
	}
	res := &runResult{
		context:  contextLine(opt, b, units[0]),
		failures: failures,
		final:    finalFor(endToEnd, metrics, attempted, failed),
	}
	res.context["units"] = len(units)
	if total1, steal1 := hostTicks(); total1 > total0 {
		// Wall time counts the share of the timed window the host's
		// hypervisor gave to other machines.
		res.context["host_steal_frac"] = float64(steal1-steal0) / float64(total1-total0)
	}
	res.context["setups_wall_s"] = setups
	res.context["setups_cpu_s"] = setupCPU
	res.context["unit_rates"] = rates
	// Work per CPU second of the process, all threads: it leaves out the
	// time the host steals, and counts idle workers as free.
	res.context["unit_cpu_rates"] = cpuRates
	res.context["wall_s"] = time.Since(start).Seconds()
	return res, nil
}

// runTraced is the per-layer measurement: one untraced unit as the
// baseline, then the same unit set up afresh and run with the tracer, the
// policy wrapper and the program's obs.Sink attached.
func runTraced(ctx context.Context, b bench, opt options) (*runResult, error) {
	if err := b.setup(ctx, nil, nil, nil); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	var mem0, mem1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&mem0)
	base, err := b.unit(ctx, nil)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&mem1)

	b.release()
	tr := newTracer()
	sink := obs.New()
	alloc := &allocStats{}
	runtime.GC()
	setupSpan := tr.beginCurrent("setup", 0)
	if err := b.setup(ctx, tr, sink, alloc); err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	setupSpan.end()
	tr.setRun(1)
	runtime.GC()
	// Only the grid and the campaign publish cell and scenario finish
	// events; the fleet's cap-write bursts would only load the stream.
	finished := &doneTimes{}
	if b.publishesDone() {
		finished = watchDone(sink)
	}
	traced, err := b.unit(ctx, tr)
	if cerr := finished.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	// The statistics derive from the digested output, so equal digests
	// mean equal statistics.
	traced.check(traced.digest == base.digest, "traced output digest %s differs from the untraced run's %s", traced.digest, base.digest)

	spans := tr.snapshot()
	layer, err := layerMetrics(layerInput{
		spans: spans, sink: sink, alloc: alloc, finished: finished, workers: b.workers(),
		base: base, traced: traced, mem0: mem0, mem1: mem1,
	})
	if err != nil {
		return nil, err
	}
	attempted := base.attempted + traced.attempted
	failed := min(base.failed+traced.failed, attempted)
	res := &runResult{
		context:  contextLine(opt, b, traced),
		failures: append(base.failures, traced.failures...),
		final:    finalFor(perLayer, layer, attempted, failed),
	}
	path := traceName(opt.outDir, opt.workload, opt.seed)
	if err := tr.write(path, map[string]any{"workload": opt.workload, "seed": opt.seed, "runs": map[string]string{"0": "traced setup", "1": "traced unit"}}); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	res.context["trace_file"] = path
	return res, nil
}

// finalFor builds the result object over the given metric list.
func finalFor(defs []metricDef, values map[string]float64, attempted, failed int) finalLine {
	out := finalLine{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		out.Metrics[d.name] = metricValue{Value: finite(values[d.name]), Unit: d.unit}
	}
	return out
}

// contextLine is the host and process context recorded with every result,
// together with the unit's digest and exact simulated statistics.
func contextLine(opt options, b bench, u *unitResult) map[string]any {
	return map[string]any{
		"workload":   opt.workload,
		"seed":       opt.seed,
		"trace":      opt.trace,
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"workers":    b.workers(),
		"digest":     u.digest,
		"stats":      sortedStats(u.stats),
	}
}

// sortedStats renders statistics as exact strings in name order.
func sortedStats(stats map[string]float64) []string {
	keys := make([]string, 0, len(stats))
	for k := range stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = k + "=" + strconv.FormatFloat(stats[k], 'g', -1, 64)
	}
	return out
}

// digestOf hashes a unit's canonical output.
func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) >= 1 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	// No procfs: fall back to the memory the Go runtime obtained.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
