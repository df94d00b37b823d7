package campaign

import (
	"bytes"
	"context"
	"slices"
	"testing"
	"time"

	"powerstack/internal/charz"
	"powerstack/internal/cluster"
	"powerstack/internal/cpumodel"
	"powerstack/internal/facility"
	"powerstack/internal/fault"
	"powerstack/internal/kernel"
	"powerstack/internal/node"
	"powerstack/internal/policy"
	"powerstack/internal/units"
)

func testWorkloads() []kernel.Config {
	return []kernel.Config{
		{Intensity: 8, Vector: kernel.YMM, Imbalance: 1},
		{Intensity: 1, Vector: kernel.XMM, WaitingPct: 50, Imbalance: 2},
	}
}

// testRunner builds a small pool plus a characterization DB covering the
// test workloads.
func testRunner(t *testing.T, nodes int) *Runner {
	t.Helper()
	c, err := cluster.New(nodes+3, cpumodel.Quartz(), cpumodel.QuartzVariation(), 11)
	if err != nil {
		t.Fatal(err)
	}
	pool := c.Nodes()
	charNodes, expPool := pool[nodes:], pool[:nodes]
	opt := charz.Options{MonitorIters: 10, BalancerIters: 40, Seed: 2, NoiseSigma: -1}
	db, err := charz.CharacterizeAll(context.Background(), testWorkloads(), charNodes, opt)
	if err != nil {
		t.Fatal(err)
	}
	return &Runner{Nodes: expPool, DB: db}
}

func testConfig(nodes int) Config {
	return Config{
		Base: facility.Config{
			MinJobIterations: 500,
			MaxJobIterations: 2000,
			JobSizes:         []int{2, 4},
			Workloads:        testWorkloads(),
			Duration:         4 * time.Hour,
			Tick:             time.Minute,
		},
		Seeds:         []uint64{1, 2, 3},
		Interarrivals: []time.Duration{20 * time.Minute},
		Budgets:       []units.Power{units.Power(nodes) * 240},
		Policies:      []policy.Policy{policy.StaticCaps{}, policy.MixedAdaptive{}},
	}
}

func mustJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParallelMatchesSequential is the campaign determinism contract: the
// serialized report must be byte-identical at any parallelism.
func TestParallelMatchesSequential(t *testing.T) {
	const nodes = 6
	r := testRunner(t, nodes)
	cfg := testConfig(nodes)

	cfg.Parallelism = 1
	seq, err := r.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4, 8} {
		cfg.Parallelism = par
		got, err := r.Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mustJSON(t, seq), mustJSON(t, got)) {
			t.Fatalf("parallel=%d report differs from sequential", par)
		}
	}
}

// TestRecycledPoolScenarioByteIdentical is satellite 3 at the campaign
// level: a scenario that runs on a pool recycled from a fault-injecting
// predecessor must produce byte-identical results to the same scenario on
// a fresh clone.
func TestRecycledPoolScenarioByteIdentical(t *testing.T) {
	const nodes = 6
	r := testRunner(t, nodes)

	ids := make([]string, len(r.Nodes))
	for i, n := range r.Nodes {
		ids[i] = n.ID
	}
	plan := fault.Generate(ids, fault.GenOptions{Seed: 9, Horizon: 4 * time.Hour, Crashes: 1, MSRWriteFaults: 2, SlowNodes: 1})

	cfg := testConfig(nodes)
	cfg.Seeds = []uint64{7}
	cfg.Policies = []policy.Policy{policy.MixedAdaptive{}}
	cfg.FaultPlans = []NamedFaultPlan{{Name: "chaos", Plan: plan}, {Name: "clean"}}
	cfg.Parallelism = 1 // one worker: the clean lane reuses the chaos lane's pool

	both, err := r.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	cleanOnly := cfg
	cleanOnly.FaultPlans = []NamedFaultPlan{{Name: "clean"}}
	fresh, err := r.Run(context.Background(), cleanOnly)
	if err != nil {
		t.Fatal(err)
	}

	recycled := both.Scenarios[1] // clean lane, ran second on the recycled pool
	want := fresh.Scenarios[0]
	recycled.Index = want.Index // position in the matrix legitimately differs
	if recycled != want {
		t.Fatalf("clean scenario on recycled pool differs from fresh clone:\nrecycled: %+v\nfresh:    %+v", recycled, want)
	}
}

func TestReportShape(t *testing.T) {
	const nodes = 6
	r := testRunner(t, nodes)
	cfg := testConfig(nodes)
	cfg.Parallelism = 4

	rep, err := r.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantScen := len(cfg.Seeds) * len(cfg.Policies)
	if len(rep.Scenarios) != wantScen {
		t.Fatalf("scenarios = %d, want %d", len(rep.Scenarios), wantScen)
	}
	if len(rep.Groups) != len(cfg.Policies) {
		t.Fatalf("groups = %d, want %d", len(rep.Groups), len(cfg.Policies))
	}
	for _, g := range rep.Groups {
		if g.Seeds != len(cfg.Seeds) {
			t.Fatalf("group %s aggregates %d seeds, want %d", g.Policy, g.Seeds, len(cfg.Seeds))
		}
		if g.Energy.Mean <= 0 {
			t.Fatalf("group %s has non-positive mean energy", g.Policy)
		}
		if g.Energy.BootLo > g.Energy.Mean || g.Energy.BootHi < g.Energy.Mean {
			t.Fatalf("group %s bootstrap interval [%v, %v] excludes mean %v",
				g.Policy, g.Energy.BootLo, g.Energy.BootHi, g.Energy.Mean)
		}
	}
	// StaticCaps is present, so it must be the comparison baseline.
	if len(rep.Comparisons) != 1 {
		t.Fatalf("comparisons = %d, want 1", len(rep.Comparisons))
	}
	cmp := rep.Comparisons[0]
	if cmp.Baseline != "StaticCaps" || cmp.Policy != "MixedAdaptive" {
		t.Fatalf("comparison %s vs %s, want MixedAdaptive vs StaticCaps", cmp.Policy, cmp.Baseline)
	}

	// Scenario rows are in matrix order regardless of worker scheduling.
	for i, s := range rep.Scenarios {
		if s.Index != i {
			t.Fatalf("scenario %d carries index %d", i, s.Index)
		}
	}
}

func TestCSVOutput(t *testing.T) {
	const nodes = 4
	r := testRunner(t, nodes)
	cfg := testConfig(nodes)
	cfg.Seeds = []uint64{1}
	cfg.Parallelism = 2
	rep, err := r.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Count(buf.Bytes(), []byte("\n"))
	if lines != 1+len(rep.Scenarios) {
		t.Fatalf("CSV has %d lines, want %d", lines, 1+len(rep.Scenarios))
	}
}

func TestValidation(t *testing.T) {
	r := testRunner(t, 4)
	ctx := context.Background()
	base := testConfig(4)

	for name, mutate := range map[string]func(*Config){
		"no seeds":    func(c *Config) { c.Seeds = nil },
		"no rates":    func(c *Config) { c.Interarrivals = nil },
		"no budgets":  func(c *Config) { c.Budgets = nil },
		"no policies": func(c *Config) { c.Policies = nil },
		"nil policy":  func(c *Config) { c.Policies = []policy.Policy{nil} },
		// An unknown response would share a valid one's run and never
		// reach the facility's own validation.
		"unknown emergency": func(c *Config) {
			c.Emergencies = []facility.EmergencyPolicy{facility.EmergencyPreempt, "evacuate"}
		},
	} {
		cfg := base
		mutate(&cfg)
		if _, err := r.Run(ctx, cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	empty := &Runner{DB: r.DB}
	if _, err := empty.Run(ctx, base); err == nil {
		t.Error("runner without nodes accepted")
	}
}

// TestFirstErrorInMatrixOrder pins that the error a campaign reports is the
// first failing scenario in matrix order, not whichever worker failed
// first on the wall clock.
func TestFirstErrorInMatrixOrder(t *testing.T) {
	r := testRunner(t, 4)
	cfg := testConfig(4)
	// An uncharacterized workload fails facility validation for every
	// scenario; the error must name scenario 0.
	cfg.Base.Workloads = append(cfg.Base.Workloads, kernel.Config{Intensity: 99, Vector: kernel.YMM, Imbalance: 1})
	cfg.Parallelism = 4
	_, err := r.Run(context.Background(), cfg)
	if err == nil {
		t.Fatal("uncharacterized workload accepted")
	}
	if want := "campaign: scenario 0 "; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("error %q does not name scenario 0", err)
	}
}

func TestCancellation(t *testing.T) {
	r := testRunner(t, 4)
	cfg := testConfig(4)
	cfg.Parallelism = 2
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Run(ctx, cfg); err == nil {
		t.Fatal("cancelled campaign succeeded")
	}
}

// TestPoolNeverMutated pins that the runner's source pool stays pristine:
// campaigns run only on clones.
func TestPoolNeverMutated(t *testing.T) {
	const nodes = 4
	r := testRunner(t, nodes)
	before := snapshotRegisters(r.Nodes)
	cfg := testConfig(nodes)
	cfg.Seeds = []uint64{1, 2}
	cfg.Parallelism = 2
	if _, err := r.Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	after := snapshotRegisters(r.Nodes)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("source register state %d changed", i)
		}
	}
}

func snapshotRegisters(pool []*node.Node) []uint64 {
	var out []uint64
	for _, nd := range pool {
		for _, s := range nd.Sockets() {
			regs := s.Dev.Registers()
			slices.Sort(regs)
			for _, reg := range regs {
				out = append(out, uint64(reg), s.Dev.PrivilegedRead(reg))
			}
		}
	}
	return out
}

// TestEmergencyLanesRankResponses is the budget-shock acceptance at the
// campaign level: identical shocks (same budget-drop plan, same seeds) run
// once per emergency response, and the report ranks the responses against
// the first lane with seed-paired statistics. Preemption must never lose
// more completed jobs than killing.
func TestEmergencyLanesRankResponses(t *testing.T) {
	const nodes = 6
	r := testRunner(t, nodes)
	cfg := testConfig(nodes)
	cfg.Policies = []policy.Policy{policy.MixedAdaptive{}}
	cfg.Interarrivals = []time.Duration{5 * time.Minute}
	// Long jobs: several are in flight when the shock lands, so the
	// emergency response actually has victims to shed.
	cfg.Base.MinJobIterations = 20000
	cfg.Base.MaxJobIterations = 60000
	cfg.Base.CheckpointEvery = 25
	cfg.Emergencies = []facility.EmergencyPolicy{
		facility.EmergencyPreempt, facility.EmergencyThrottle, facility.EmergencyKill,
	}
	cfg.FaultPlans = []NamedFaultPlan{{Name: "shock", Plan: fault.NewPlan(
		fault.Injection{Kind: fault.BudgetDrop, At: time.Hour, Duration: time.Hour, Factor: 0.15},
	)}}
	cfg.Parallelism = 4

	rep, err := r.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantScen := len(cfg.Seeds) * len(cfg.Emergencies)
	if len(rep.Scenarios) != wantScen {
		t.Fatalf("scenarios = %d, want %d (seeds x emergencies)", len(rep.Scenarios), wantScen)
	}

	completed := map[string]int{}
	shed := map[string]int{}
	resumed := 0
	for _, s := range rep.Scenarios {
		if s.BudgetChanges == 0 {
			t.Fatalf("scenario %d saw no budget change under the shock plan", s.Index)
		}
		completed[s.Emergency] += s.Completed
		shed[s.Emergency] += s.Preempted + s.Killed
		if s.Emergency == string(facility.EmergencyPreempt) {
			resumed += s.Resumed
		}
	}
	if shed["preempt"] == 0 || shed["kill"] == 0 {
		t.Fatalf("shock shed nothing: preempt lane %d, kill lane %d", shed["preempt"], shed["kill"])
	}
	if shed["throttle"] != 0 {
		t.Fatalf("throttle lane shed %d jobs", shed["throttle"])
	}
	if resumed == 0 {
		t.Fatal("no preempted job resumed")
	}
	if completed["preempt"] < completed["kill"] {
		t.Fatalf("preempt completed %d < kill %d across seeds", completed["preempt"], completed["kill"])
	}

	// The ranking: one comparison per non-baseline lane, baselined on the
	// first Emergencies entry.
	if len(rep.EmergencyComparisons) != 2 {
		t.Fatalf("emergency comparisons = %d, want 2", len(rep.EmergencyComparisons))
	}
	for _, ec := range rep.EmergencyComparisons {
		if ec.Baseline != string(facility.EmergencyPreempt) {
			t.Errorf("comparison baselined on %q, want preempt", ec.Baseline)
		}
		if ec.Fault != "shock" {
			t.Errorf("comparison fault = %q, want shock", ec.Fault)
		}
	}
	killCmp := rep.EmergencyComparisons[1]
	if killCmp.Emergency != string(facility.EmergencyKill) {
		t.Fatalf("second comparison is %q, want kill", killCmp.Emergency)
	}
	if killCmp.MeanKilled <= 0 {
		t.Errorf("kill lane MeanKilled = %v, want > 0", killCmp.MeanKilled)
	}
	if killCmp.CompletedChange > 0 {
		t.Errorf("kill completed %+.3f%% vs preempt, want <= 0", 100*killCmp.CompletedChange)
	}

	// The emergency axis must survive serialization round trips like every
	// other axis: identical runs are byte-identical at any parallelism.
	cfg.Parallelism = 1
	seq, err := r.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, rep), mustJSON(t, seq)) {
		t.Fatal("emergency campaign not deterministic across parallelism")
	}
}
