package facility

import (
	"context"
	"testing"
	"time"

	"powerstack/internal/charz"
	"powerstack/internal/cluster"
	"powerstack/internal/cpumodel"
	"powerstack/internal/kernel"
	"powerstack/internal/node"
	"powerstack/internal/policy"
	"powerstack/internal/units"
)

func facilityEnv(t testing.TB, nNodes int) ([]*node.Node, *charz.DB, []kernel.Config) {
	t.Helper()
	c, err := cluster.New(nNodes+4, cpumodel.Quartz(), cpumodel.QuartzVariation(), 41)
	if err != nil {
		t.Fatal(err)
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
		t.Fatal(err)
	}
	return c.Nodes()[:nNodes], db, workloads
}

func baseConfig(nodes []*node.Node, db *charz.DB, workloads []kernel.Config) Config {
	return Config{
		Nodes:            nodes,
		DB:               db,
		Policy:           policy.MixedAdaptive{},
		SystemBudget:     units.Power(len(nodes)) * 200 * units.Watt,
		MeanInterarrival: 30 * time.Second,
		MinJobIterations: 500,
		MaxJobIterations: 2000,
		JobSizes:         []int{2, 4},
		Workloads:        workloads,
		Duration:         30 * time.Minute,
		Tick:             30 * time.Second,
		Seed:             7,
	}
}

func TestConfigValidation(t *testing.T) {
	nodes, db, workloads := facilityEnv(t, 4)
	good := baseConfig(nodes, db, workloads)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Nodes = nil },
		func(c *Config) { c.DB = nil },
		func(c *Config) { c.SystemBudget = 0 },
		func(c *Config) { c.MeanInterarrival = 0 },
		func(c *Config) { c.MinJobIterations = 0 },
		func(c *Config) { c.MaxJobIterations = 1 },
		func(c *Config) { c.JobSizes = nil },
		func(c *Config) { c.JobSizes = []int{99} },
		func(c *Config) { c.Workloads = nil },
		func(c *Config) { c.Workloads = []kernel.Config{{Intensity: 5, Vector: kernel.YMM, Imbalance: 1}} },
		func(c *Config) { c.Tick = 0 },
		func(c *Config) { c.Duration = time.Second },
	}
	for i, mutate := range mutations {
		bad := baseConfig(nodes, db, workloads)
		mutate(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestFacilitySimulationRuns(t *testing.T) {
	nodes, db, workloads := facilityEnv(t, 8)
	cfg := baseConfig(nodes, db, workloads)
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Submitted == 0 || res.Started == 0 || res.Completed == 0 {
		t.Fatalf("lifecycle counters: %d/%d/%d", res.Submitted, res.Started, res.Completed)
	}
	if res.Started < res.Completed {
		t.Errorf("completed %d > started %d", res.Completed, res.Started)
	}
	if len(res.Trace) != int(cfg.Duration/cfg.Tick) {
		t.Errorf("trace samples = %d, want %d", len(res.Trace), int(cfg.Duration/cfg.Tick))
	}
	if res.MeanPower <= 0 || res.PeakPower < res.MeanPower {
		t.Errorf("power summary: mean %v peak %v", res.MeanPower, res.PeakPower)
	}
	if res.MeanNodeUtilization <= 0 || res.MeanNodeUtilization > 1 {
		t.Errorf("utilization = %v", res.MeanNodeUtilization)
	}
	if res.TotalEnergy <= 0 {
		t.Errorf("energy = %v", res.TotalEnergy)
	}
}

func TestFacilityRespectsBudget(t *testing.T) {
	nodes, db, workloads := facilityEnv(t, 8)
	cfg := baseConfig(nodes, db, workloads)
	// Tight budget: the scheduler's power admission (uncapped-demand
	// based) must keep the facility within the limit at all times.
	cfg.SystemBudget = units.Power(len(nodes)) * 180 * units.Watt
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BudgetViolationTicks > 0 {
		t.Errorf("%d of %d ticks above budget", res.BudgetViolationTicks, len(res.Trace))
	}
	if res.PeakPower > cfg.SystemBudget {
		t.Errorf("peak %v above budget %v", res.PeakPower, cfg.SystemBudget)
	}
}

func TestFacilityDeterministicBySeed(t *testing.T) {
	nodes, db, workloads := facilityEnv(t, 6)
	cfg := baseConfig(nodes, db, workloads)
	cfg.Duration = 10 * time.Minute
	a, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh nodes for an identical rerun.
	nodes2, db2, workloads2 := facilityEnv(t, 6)
	cfg2 := baseConfig(nodes2, db2, workloads2)
	cfg2.Duration = 10 * time.Minute
	b, err := Run(context.Background(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Submitted != b.Submitted || a.Completed != b.Completed {
		t.Errorf("nondeterministic: %d/%d vs %d/%d", a.Submitted, a.Completed, b.Submitted, b.Completed)
	}
}

func TestHigherLoadRaisesUtilization(t *testing.T) {
	nodes, db, workloads := facilityEnv(t, 8)
	quiet := baseConfig(nodes, db, workloads)
	quiet.MeanInterarrival = 4 * time.Minute
	quiet.Duration = 20 * time.Minute
	resQuiet, err := Run(context.Background(), quiet)
	if err != nil {
		t.Fatal(err)
	}

	nodes2, db2, workloads2 := facilityEnv(t, 8)
	busy := baseConfig(nodes2, db2, workloads2)
	busy.MeanInterarrival = 15 * time.Second
	busy.Duration = 20 * time.Minute
	resBusy, err := Run(context.Background(), busy)
	if err != nil {
		t.Fatal(err)
	}
	if resBusy.MeanNodeUtilization <= resQuiet.MeanNodeUtilization {
		t.Errorf("busy utilization %v not above quiet %v",
			resBusy.MeanNodeUtilization, resQuiet.MeanNodeUtilization)
	}
	if resBusy.MeanPower <= resQuiet.MeanPower {
		t.Errorf("busy power %v not above quiet %v", resBusy.MeanPower, resQuiet.MeanPower)
	}
}
