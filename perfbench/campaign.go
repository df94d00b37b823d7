package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"powerstack/internal/campaign"
	"powerstack/internal/charz"
	"powerstack/internal/cluster"
	"powerstack/internal/cpumodel"
	"powerstack/internal/facility"
	"powerstack/internal/fault"
	"powerstack/internal/node"
	"powerstack/internal/obs"
	"powerstack/internal/policy"
	"powerstack/internal/units"
	"powerstack/internal/workload"
)

// campaignSize is the campaign matrix's input size.
type campaignSize struct {
	nodes, charNodes, seeds int
	horizon                 time.Duration
	interarrival            time.Duration
	jobSizes                []int
	minIters, maxIters      int
	wattsPerNode            float64
	// The shock lane drops the budget to shockFrac at shockAt for
	// shockDur; the chaos lane injects faults into this many nodes per
	// class.
	shockAt, shockDur time.Duration
	shockFrac         float64
	faultyNodes       int
}

// campaignChaos is a fault-injected campaign matrix on a facility below
// facility.ScaleThreshold, which takes the exact flat path: seeds x the 5
// policies x {clean, chaos, shock} lanes x {preempt, throttle, kill}
// emergency responses. It exercises the facility, rm and telemetry code
// fleet_100k runs, used differently: many short runs, a pool reset per
// scenario, the flat sampler, no parallel replan, MSR-fault retry and
// quarantine, crash requeue, and preempt/resume.
type campaignChaos struct {
	opt  options
	size campaignSize

	charPool  []*node.Node
	cache     *charz.Cache
	runner    *campaign.Runner
	policies  []policy.Policy
	chaosPlan *fault.Plan
	sink      *obs.Sink
}

func newCampaign(opt options) *campaignChaos {
	size := campaignSize{
		nodes: 256, charNodes: 8, seeds: 2,
		horizon: 150 * time.Minute, interarrival: 90 * time.Second,
		jobSizes: []int{8, 16, 32, 64}, minIters: 10_000, maxIters: 60_000,
		wattsPerNode: 190,
		shockAt:      90 * time.Minute, shockDur: time.Hour, shockFrac: 0.5,
		faultyNodes: 6,
	}
	if opt.small {
		size = campaignSize{
			nodes: 48, charNodes: 4, seeds: 1,
			horizon: 2 * time.Hour, interarrival: 30 * time.Second,
			jobSizes: []int{4, 8, 16}, minIters: 20_000, maxIters: 100_000,
			wattsPerNode: 190,
			shockAt:      45 * time.Minute, shockDur: 30 * time.Minute, shockFrac: 0.5,
			faultyNodes: 3,
		}
	}
	return &campaignChaos{opt: opt, size: size}
}

// campaignPlatformSeed fixes the cluster's silicon variation, as
// cmd/campaign does. The benchmark seed picks the chaos lane's faults: a
// platform seed moves the matrix's cost by a fifth (it changes how many jobs
// the facility completes), a fault seed by about 1%.
const campaignPlatformSeed = 1

// One worker: a faulted matrix at two workers spreads far more from run to
// run than at one.
func (c *campaignChaos) workers() int        { return 1 }
func (c *campaignChaos) reusable() bool      { return true }
func (c *campaignChaos) publishesDone() bool { return true }

func (c *campaignChaos) release() {
	c.charPool, c.cache, c.runner, c.policies, c.chaosPlan, c.sink = nil, nil, nil, nil, nil, nil
}

// catalogOptions are the characterization runs' settings.
func catalogOptions() charz.Options {
	return charz.Options{MonitorIters: 10, BalancerIters: 50, Seed: 2, NoiseSigma: -1}
}

// setup builds the pool, characterizes the Table II catalog through a cold
// characterization cache and builds the campaign runner.
func (c *campaignChaos) setup(ctx context.Context, tr *tracer, sink *obs.Sink, alloc *allocStats) error {
	root := tr.parent()
	h := tr.begin("cluster.new", root)
	cl, err := cluster.New(c.size.nodes+c.size.charNodes, cpumodel.Quartz(), cpumodel.QuartzVariation(), campaignPlatformSeed)
	h.end()
	if err != nil {
		return err
	}
	c.charPool = cl.Nodes()[c.size.nodes:]
	c.cache = charz.NewCache()
	c.cache.Obs = sink
	c.sink = sink
	h = tr.begin("charz.characterize", root)
	db, err := c.characterize(ctx)
	h.end()
	if err != nil {
		return err
	}
	nodes := cl.Nodes()[:c.size.nodes]
	ids := make([]string, len(nodes))
	for i, n := range nodes {
		ids[i] = n.ID
	}
	c.chaosPlan = fault.Generate(ids, fault.GenOptions{
		Seed:           c.opt.seed,
		MSRWriteFaults: c.size.faultyNodes,
		Crashes:        c.size.faultyNodes,
		RepairFraction: 0.5,
		Dropouts:       c.size.faultyNodes,
		Horizon:        c.size.horizon,
	})
	c.policies = policy.All()
	if alloc != nil {
		c.policies = wrapPolicies(c.policies, alloc, tr)
	}
	c.runner = &campaign.Runner{Nodes: nodes, DB: db, Obs: sink}
	return nil
}

// characterize builds the catalog's database through the cache: misses on
// a cold cache, hits afterwards.
func (c *campaignChaos) characterize(ctx context.Context) (*charz.DB, error) {
	db := charz.NewDB()
	for _, cfg := range workload.Catalog() {
		e, _, err := c.cache.GetOrCharacterize(ctx, cfg, c.charPool, catalogOptions())
		if err != nil {
			return nil, fmt.Errorf("characterizing %s: %w", cfg.Name(), err)
		}
		db.Put(e)
	}
	return db, nil
}

func (c *campaignChaos) config() campaign.Config {
	// The replication axis is part of the matrix, as cmd/campaign's
	// -seeds N runs seeds 1..N.
	seeds := make([]uint64, c.size.seeds)
	for i := range seeds {
		seeds[i] = uint64(i) + 1
	}
	return campaign.Config{
		Base: facility.Config{
			MinJobIterations: c.size.minIters,
			MaxJobIterations: c.size.maxIters,
			JobSizes:         c.size.jobSizes,
			Workloads:        workload.Catalog(),
			Duration:         c.size.horizon,
			Tick:             time.Minute,
			CheckpointEvery:  workload.CheckpointInterval(c.size.minIters, c.size.maxIters),
		},
		Seeds:         seeds,
		Interarrivals: []time.Duration{c.size.interarrival},
		Budgets:       []units.Power{units.Power(c.size.nodes) * units.Power(c.size.wattsPerNode) * units.Watt},
		Policies:      c.policies,
		FaultPlans: []campaign.NamedFaultPlan{
			{Name: "clean"},
			{Name: "chaos", Plan: c.chaosPlan},
			{Name: "shock", Plan: &fault.Plan{Injections: []fault.Injection{{
				Kind: fault.BudgetDrop, At: c.size.shockAt, Duration: c.size.shockDur, Factor: c.size.shockFrac,
			}}}},
		},
		Emergencies: []facility.EmergencyPolicy{facility.EmergencyPreempt, facility.EmergencyThrottle, facility.EmergencyKill},
		Parallelism: c.workers(),
	}
}

func (c *campaignChaos) unit(ctx context.Context, tr *tracer) (*unitResult, error) {
	cfg := c.config()
	var spent meter
	var db *charz.DB
	h := tr.begin("charz.characterize", 0)
	err := spent.time(func() (err error) { db, err = c.characterize(ctx); return err })
	h.end()
	if err != nil {
		return nil, err
	}
	c.runner.DB = db
	var rep *campaign.Report
	h = tr.beginCurrent("campaign.run", 0)
	err = spent.time(func() (err error) { rep, err = c.runner.Run(ctx, cfg); return err })
	h.end()
	if err != nil {
		return nil, err
	}
	var canon bytes.Buffer
	if err := rep.WriteJSON(&canon); err != nil {
		return nil, err
	}

	n := len(rep.Scenarios)
	u := &unitResult{work: float64(n), spent: spent, attempted: n, digest: digestOf(canon.Bytes())}
	u.check(n == c.size.seeds*5*3*3, "campaign ran %d scenarios, want %d", n, c.size.seeds*5*3*3)
	var completed, preempted, killed, resumed, quarantined, requeued int
	var energy, busyFrac float64
	chaosQuarantines := 0
	for _, s := range rep.Scenarios {
		completed += s.Completed
		preempted += s.Preempted
		killed += s.Killed
		resumed += s.Resumed
		quarantined += s.Quarantined
		requeued += s.Requeued
		energy += s.TotalEnergy.Joules()
		busyFrac += s.MeanNodeUtilization / float64(n)
		u.check(s.Completed > 0, "scenario %d completed no job", s.Index)
		switch s.Fault {
		case "chaos":
			chaosQuarantines += s.Quarantined
		case "shock":
			// Every response must act on the shock: preempt and kill
			// shed at least one job; throttle sheds none by design and
			// squeezes the running set instead.
			switch facility.EmergencyPolicy(s.Emergency) {
			case facility.EmergencyPreempt:
				u.check(s.Preempted >= 1, "shock scenario %d (preempt) preempted no job", s.Index)
			case facility.EmergencyKill:
				u.check(s.Killed >= 1, "shock scenario %d (kill) killed no job", s.Index)
			case facility.EmergencyThrottle:
				u.check(s.BudgetChanges >= 1 && s.Preempted+s.Killed == 0,
					"shock scenario %d (throttle): %d budget changes, %d jobs shed", s.Index, s.BudgetChanges, s.Preempted+s.Killed)
			}
		case "clean":
			u.check(s.Quarantined == 0 && s.BudgetChanges == 0, "clean scenario %d saw quarantines or budget changes", s.Index)
		}
	}
	u.check(chaosQuarantines >= 1, "the chaos lane quarantined no node")
	retries, err := c.chaosRetries(ctx, cfg)
	if err != nil {
		return nil, err
	}
	u.check(retries >= 1, "the chaos lane retried no cap write")
	u.stats = map[string]float64{
		"scenarios":   float64(n),
		"completed":   float64(completed),
		"preempted":   float64(preempted),
		"killed":      float64(killed),
		"resumed":     float64(resumed),
		"quarantined": float64(quarantined),
		"requeued":    float64(requeued),
		"energy_j":    energy,
	}
	u.layer = map[string]float64{
		"facility.completed":      float64(completed),
		"facility.energy_mj":      energy / 1e6,
		"facility.busy_node_frac": busyFrac,
	}
	return u, nil
}

// chaosRetries counts the cap-write retries of the chaos lane. Retries are
// visible only through the program's sink: the traced run reads the sink
// it attached to the whole matrix, and an untraced run, whose timed matrix
// has no sink, reruns one chaos scenario after the timing with a bare sink.
func (c *campaignChaos) chaosRetries(ctx context.Context, cfg campaign.Config) (float64, error) {
	sink := c.sink
	if sink == nil {
		sink = obs.New()
		cfg.Seeds, cfg.Policies, cfg.Emergencies = cfg.Seeds[:1], cfg.Policies[:1], cfg.Emergencies[:1]
		cfg.FaultPlans = []campaign.NamedFaultPlan{{Name: "chaos", Plan: c.chaosPlan}}
		probe := campaign.Runner{Nodes: c.runner.Nodes, DB: c.runner.DB, Obs: sink}
		if _, err := probe.Run(ctx, cfg); err != nil {
			return 0, fmt.Errorf("chaos retry probe: %w", err)
		}
	}
	cs, err := readCounters(sink)
	if err != nil {
		return 0, err
	}
	return cs.total(obs.MetricCapRetries), nil
}
