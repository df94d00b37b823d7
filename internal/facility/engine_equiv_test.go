package facility

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"
	"time"

	"powerstack/internal/cluster"
	"powerstack/internal/fault"
	"powerstack/internal/units"
)

// goldenConfig is the pinned equivalence scenario: light enough that
// every job starts on arrival, long enough that completions, a crash, a
// repair, and a slow-node window all land well inside the horizon. The
// 2s Tick is fine relative to job length, which is what let the fixed-tick
// reference core (whose per-tick spans overshot a job's remaining
// iterations by up to one tick's worth) agree with the event core within
// the tolerances assertEquivalent applies.
func goldenConfig(t *testing.T) Config {
	t.Helper()
	nodes, db, workloads := facilityEnv(t, 10)
	cfg := baseConfig(nodes, db, workloads)
	cfg.MeanInterarrival = 90 * time.Second
	cfg.MinJobIterations = 1000
	cfg.MaxJobIterations = 3000
	cfg.JobSizes = []int{2, 3}
	cfg.Duration = 30 * time.Minute
	cfg.Tick = 2 * time.Second
	cfg.Seed = 11
	return cfg
}

// goldenFaults is the non-empty plan the equivalence must hold under: a
// mid-run crash with a scheduled repair and a bounded slow-node window.
func goldenFaults() *fault.Plan {
	return fault.NewPlan(
		fault.Injection{Kind: fault.NodeCrash, Node: "quartz0001", At: 5 * time.Minute, RepairAfter: 10 * time.Minute},
		fault.Injection{Kind: fault.SlowNode, Node: "quartz0002", At: 7 * time.Minute, Duration: 8 * time.Minute, Factor: 1.4},
	)
}

// tickOracle is the frozen output of the fixed-tick core — the original
// facility loop, which advanced every running job through every Tick with
// a real BSP iteration plus an analytic span and sampled on Tick
// boundaries — on the equivalence scenarios. It was recorded before that
// core was deleted and stays as an independent oracle for the event core:
// every field below is a Result field the tick core produced.
type tickOracle struct {
	Submitted, Started, Completed, QueuedAtEnd int
	Requeued, Quarantined, Rejoined            int
	TraceLen                                   int
	TotalEnergy                                units.Energy
	MeanPower, PeakPower                       units.Power
	MeanQueueWait                              time.Duration
	MeanNodeUtilization                        float64
}

var (
	// tickGolden is goldenConfig on the tick core.
	tickGolden = tickOracle{
		Submitted: 17, Started: 17, Completed: 16, TraceLen: 900,
		TotalEnergy: 536579.8913879395, MeanPower: 298.09993965996637, PeakPower: 1457.3585357666016,
		MeanQueueWait: -401573338, MeanNodeUtilization: 0.14277777777777778,
	}
	// tickGoldenFaults is goldenConfig under goldenFaults.
	tickGoldenFaults = tickOracle{
		Submitted: 17, Started: 17, Completed: 16, Quarantined: 1, Rejoined: 1, TraceLen: 900,
		TotalEnergy: 546549.7568969727, MeanPower: 303.63875383165146, PeakPower: 1457.3585357666016,
		MeanQueueWait: -401573338, MeanNodeUtilization: 0.14466666666666667,
	}
	// tickNonDivisible is goldenConfig with a Duration of 938.5 Ticks; the
	// tick core clamped its final tick to the horizon and sampled there.
	tickNonDivisible = tickOracle{
		Submitted: 19, Started: 19, Completed: 19, TraceLen: 939,
		TotalEnergy: 579207.8047485352, MeanPower: 308.4173614209452, PeakPower: 1511.282943725586,
		MeanQueueWait: -412828878, MeanNodeUtilization: 0.1482152370804475,
	}
)

// relDiff returns |a-b| / max(|a|,|b|).
func relDiff(a, b float64) float64 {
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

// assertEquivalent checks the golden contract between the frozen tick
// oracle and an event result: identical job-lifecycle and fault counters,
// energy and power within ε (the cores sampled OS noise at different
// rates), queue waits within the tick quantization (a tick-core job
// arriving mid-tick started at the enclosing tick's beginning, so its
// waits could be slightly negative), utilization within a few percent.
func assertEquivalent(t *testing.T, tick tickOracle, event *Result, tickDur time.Duration) {
	t.Helper()
	if tick.Submitted != event.Submitted {
		t.Errorf("Submitted: tick %d, event %d", tick.Submitted, event.Submitted)
	}
	if tick.Started != event.Started {
		t.Errorf("Started: tick %d, event %d", tick.Started, event.Started)
	}
	if tick.Completed != event.Completed {
		t.Errorf("Completed: tick %d, event %d", tick.Completed, event.Completed)
	}
	if tick.QueuedAtEnd != event.QueuedAtEnd {
		t.Errorf("QueuedAtEnd: tick %d, event %d", tick.QueuedAtEnd, event.QueuedAtEnd)
	}
	if tick.Requeued != event.Requeued || tick.Quarantined != event.Quarantined || tick.Rejoined != event.Rejoined {
		t.Errorf("fault counters: tick %d/%d/%d, event %d/%d/%d",
			tick.Requeued, tick.Quarantined, tick.Rejoined,
			event.Requeued, event.Quarantined, event.Rejoined)
	}
	if tick.TraceLen != len(event.Trace) {
		t.Errorf("trace length: tick %d, event %d", tick.TraceLen, len(event.Trace))
	}
	if d := relDiff(tick.TotalEnergy.Joules(), event.TotalEnergy.Joules()); d > 0.03 {
		t.Errorf("TotalEnergy diverged %.1f%%: tick %v, event %v", 100*d, tick.TotalEnergy, event.TotalEnergy)
	}
	if d := relDiff(tick.MeanPower.Watts(), event.MeanPower.Watts()); d > 0.03 {
		t.Errorf("MeanPower diverged %.1f%%: tick %v, event %v", 100*d, tick.MeanPower, event.MeanPower)
	}
	if d := relDiff(tick.PeakPower.Watts(), event.PeakPower.Watts()); d > 0.05 {
		t.Errorf("PeakPower diverged %.1f%%: tick %v, event %v", 100*d, tick.PeakPower, event.PeakPower)
	}
	if d := tick.MeanQueueWait - event.MeanQueueWait; d > 2*tickDur || d < -2*tickDur {
		t.Errorf("MeanQueueWait: tick %v, event %v (tolerance 2x%v)", tick.MeanQueueWait, event.MeanQueueWait, tickDur)
	}
	if d := math.Abs(tick.MeanNodeUtilization - event.MeanNodeUtilization); d > 0.05 {
		t.Errorf("MeanNodeUtilization: tick %.4f, event %.4f", tick.MeanNodeUtilization, event.MeanNodeUtilization)
	}
}

func TestEngineEquivalenceGolden(t *testing.T) {
	cfg := goldenConfig(t)
	event, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if event.EventsDispatched == 0 {
		t.Error("event engine dispatched no events")
	}
	assertEquivalent(t, tickGolden, event, cfg.Tick)
}

func TestEngineEquivalenceGoldenUnderFaults(t *testing.T) {
	cfg := goldenConfig(t)
	cfg.Faults = goldenFaults()
	event, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The plan must actually bite for the equivalence to mean anything.
	if event.Quarantined == 0 || event.Rejoined == 0 {
		t.Fatalf("golden fault plan did not fire: quarantined %d, rejoined %d", event.Quarantined, event.Rejoined)
	}
	assertEquivalent(t, tickGoldenFaults, event, cfg.Tick)
}

// TestResultDigestsFrozen pins four Results across code changes, not just
// across two runs of one binary: the SHA-256 of each canonical Result JSON
// was recorded from the event core before the tick core and the extra
// sample paths were deleted (with the tick core's always-zero tick counter,
// deleted with it, dropped from the encoding). The cases cover
// the flat path clean and faulted, the scale path under every fault kind
// the dirty-set sampler special-cases (dropout, MSR read fault, crash), and
// a preempting budget shock with checkpoint resume.
func TestResultDigestsFrozen(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The digests are of float64 results recorded on amd64. Other
		// architectures let the Go compiler fuse multiply-adds into FMA
		// instructions, which rounds differently and moves the low bits.
		t.Skipf("digests recorded on amd64; %s may fuse floating-point operations", runtime.GOARCH)
	}
	digest := func(res *Result) string {
		return fmt.Sprintf("%x", sha256.Sum256([]byte(resultJSON(t, res))))
	}
	run := func(cfg Config) *Result {
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cases := map[string]struct {
		cfg  func() Config
		want string
	}{
		"flat clean": {
			cfg:  func() Config { return goldenConfig(t) },
			want: "1c73ae8e66e1551009b0d9fff52ab9c5fe8d5256bb51b13e1ddc107fe05fd5b3",
		},
		"flat faulted": {
			cfg: func() Config {
				cfg := goldenConfig(t)
				cfg.Faults = goldenFaults()
				return cfg
			},
			want: "6823caacdf37255f466897cfcc3316a909e7691551f10c0855ac10138991ab3b",
		},
		"scale faulted": {
			cfg: func() Config {
				src, db, workloads := facilityEnv(t, 24)
				cfg := baseConfig(cluster.ClonePool(src), db, workloads)
				cfg.JobSizes = []int{2, 4, 8}
				cfg.ScaleMode = ScaleOn
				cfg.Faults = pipelineFaults()
				return cfg
			},
			want: "851296eb5ae7ff9d0893b0b591c7b402f41137578a21eaf6edaa9804163cd0a9",
		},
		"preempt shock": {
			cfg: func() Config {
				nodes, db, workloads := facilityEnv(t, 8)
				cfg := baseConfig(nodes, db, workloads)
				cfg.Duration = 45 * time.Minute
				cfg.MeanInterarrival = 20 * time.Second
				cfg.Faults = fault.NewPlan(fault.Injection{
					Kind: fault.BudgetDrop, At: 12 * time.Minute, Duration: 10 * time.Minute, Factor: 0.15,
				})
				cfg.Emergency = EmergencyPreempt
				cfg.CheckpointEvery = 50
				return cfg
			},
			want: "938a1e2eab9939f7889d06832a4a550c731745bffc9739eb4730421baa997d71",
		},
	}
	for name, c := range cases {
		if got := digest(run(c.cfg())); got != c.want {
			t.Errorf("%s: Result digest %s, want %s", name, got, c.want)
		}
	}
}

// TestEventEngineByteIdenticalBySeed asserts full Result equality — trace
// samples, counters, aggregates — across two event-engine runs with the
// same seed on fresh identical clusters, including under a fault plan.
func TestEventEngineByteIdenticalBySeed(t *testing.T) {
	run := func() *Result {
		cfg := goldenConfig(t)
		cfg.Faults = goldenFaults()
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("event-engine runs with the same seed differ:\n  a: %+v\n  b: %+v", a, b)
	}
}

// TestQueuedAtEndExcludedFromWait saturates a tiny pool so late arrivals
// never start, and asserts the Result's documented accounting: QueuedAtEnd
// is exactly the submitted-but-never-started count, and MeanQueueWait
// averages only over started jobs.
func TestQueuedAtEndExcludedFromWait(t *testing.T) {
	// The subtest keeps the name it had when a second core ran beside it.
	t.Run("event", func(t *testing.T) {
		nodes, db, workloads := facilityEnv(t, 4)
		cfg := baseConfig(nodes, db, workloads)
		// Size-3 jobs on a 4-node pool: one runs, everything behind it
		// queues (a second would need 3 of the 1 free node).
		cfg.JobSizes = []int{3}
		cfg.MeanInterarrival = time.Minute
		cfg.MinJobIterations = 20000
		cfg.MaxJobIterations = 21000
		cfg.Duration = 20 * time.Minute
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.QueuedAtEnd == 0 {
			t.Fatal("saturated pool left no jobs queued; scenario broken")
		}
		if got, want := res.QueuedAtEnd, res.Submitted-res.Started; got != want {
			t.Errorf("QueuedAtEnd = %d, want Submitted-Started = %d", got, want)
		}
		if res.Started == 0 {
			t.Fatal("no job ever started")
		}
		// Waits reflect only the started jobs: with one job hogging the
		// pool for the whole run, the first start is immediate and the
		// mean wait must stay far below the queue age of the stuck jobs.
		if res.MeanQueueWait > cfg.Duration/2 {
			t.Errorf("MeanQueueWait %v looks like it averaged never-started jobs", res.MeanQueueWait)
		}
	})
}

// TestExpDurationNeverZero is the regression test for the arrival-loop
// stall: a mean so small that sampled gaps truncate to zero must clamp to
// at least 1ns, or the arrival scan advances nextArrival by nothing and
// spins forever.
func TestExpDurationNeverZero(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 100000; i++ {
		if d := expDuration(rng, time.Nanosecond); d < time.Nanosecond {
			t.Fatalf("draw %d: gap %v below 1ns", i, d)
		}
	}
}

// TestValidateEngineFields covers the event core's cadence knobs: any
// positive Tick and ReplanEvery are accepted, negative or zero ones are not.
func TestValidateEngineFields(t *testing.T) {
	nodes, db, workloads := facilityEnv(t, 4)
	base := func() Config { return baseConfig(nodes, db, workloads) }

	good := base()
	good.Tick = 7 * time.Second
	good.ReplanEvery = 11 * time.Second // need not be a multiple of Tick
	if err := good.Validate(); err != nil {
		t.Errorf("valid cadence config rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Config){
		"zero tick":               func(c *Config) { c.Tick = 0 },
		"tick beyond duration":    func(c *Config) { c.Tick = c.Duration + time.Second },
		"negative replan cadence": func(c *Config) { c.ReplanEvery = -time.Second },
	} {
		bad := base()
		mutate(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
