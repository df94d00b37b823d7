// Package campaign is the multi-run evaluation engine: it fans a scenario
// matrix (seeds × interarrival rates × budgets × policies × fault plans ×
// emergency responses) of facility simulations across a bounded worker
// pool and aggregates the per-seed outcomes into the per-group statistics
// (mean, bootstrap CI, policy-vs-policy Welch tests) the paper's policy
// ranking rests on.
//
// Determinism is the contract the whole package is built around, following
// the sim grid's cell-isolation pattern: every facility run starts on a
// pristine clone pool (each worker owns one cluster.PoolState and restores
// it before every run), results land in index-addressed slots, errors are
// reported in matrix order, and the Report carries no wall-clock or
// scheduling-order data — so a campaign's serialized output is
// byte-identical at any parallelism, including fully sequential.
//
// Scenarios that differ only in their emergency response form one group
// and share the prefix of their facility run. The response is read only
// when a budget change strands committed power, and budget changes happen
// only at the timeline's edges, so every response runs identically up to
// the first edge (facility.Config.Divergence). The group runs once to one
// nanosecond before it and forks there once per further response
// (facility.Instance.Fork); the last response continues on the original
// instance. A lane whose budget never changes has no such instant: one run
// to the horizon serves every response.
package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"powerstack/internal/charz"
	"powerstack/internal/cluster"
	"powerstack/internal/facility"
	"powerstack/internal/fault"
	"powerstack/internal/node"
	"powerstack/internal/obs"
	"powerstack/internal/policy"
	"powerstack/internal/units"
)

// NamedFaultPlan pairs a fault plan with the label it appears under in
// reports. A nil Plan (or nil-Plan entry) is the clean lane.
type NamedFaultPlan struct {
	Name string
	Plan *fault.Plan
}

// Config describes a campaign: a base facility configuration plus the
// matrix axes swept over it.
type Config struct {
	// Base is the facility configuration template every scenario starts
	// from. Its Nodes, DB, Obs, Seed, MeanInterarrival, SystemBudget,
	// Policy, Faults, and Emergency fields are overridden per scenario;
	// everything else (workloads, job geometry, budget timeline, duration,
	// tick) is shared.
	Base facility.Config

	// Seeds are the replication axis: every (interarrival, budget, policy,
	// fault) cell runs once per seed, and per-group statistics aggregate
	// across them.
	Seeds []uint64
	// Interarrivals sweeps the Poisson arrival process' mean gap.
	Interarrivals []time.Duration
	// Budgets sweeps the facility power limit.
	Budgets []units.Power
	// Policies sweeps the Section III policies under comparison.
	Policies []policy.Policy
	// FaultPlans optionally sweeps fault lanes; empty runs one clean lane.
	FaultPlans []NamedFaultPlan
	// Emergencies optionally sweeps the budget-emergency response
	// (preempt/throttle/kill) so identical shocks — same budget timeline,
	// same fault lane, same seeds — rank the responses against each other.
	// Empty runs one lane with Base.Emergency. The responses of one cell
	// share their run up to the first budget change, and a lane whose
	// budget never changes shares all of it (see Runner.Run).
	Emergencies []facility.EmergencyPolicy

	// Parallelism bounds the worker pool; <= 0 selects GOMAXPROCS. 1 is
	// fully sequential and produces byte-identical reports to any other
	// setting.
	Parallelism int

	// Shard and Shards distribute the matrix across processes: with
	// Shards > 1 this runner executes only the scenarios whose
	// Index % Shards == Shard and returns a partial report carrying just
	// those scenario results (no groups or comparisons — aggregation needs
	// the full matrix). MergeReports joins the partial reports of all
	// shards into a report byte-identical to a single-process run. The
	// zero values disable sharding.
	Shard  int
	Shards int

	// FlightDir, when non-empty, enables the flight recorder: every failed
	// scenario — and every successful one the Anomalous predicate flags —
	// writes a self-contained post-mortem artifact
	// (flight-<index>-<reason>.json) into this directory. The directory is
	// created if missing. Flight artifacts carry wall-clock data and never
	// feed the Report, so determinism is unaffected.
	FlightDir string `json:"-"`
	// Anomalous flags a successful scenario's result for flight capture;
	// nil selects DefaultAnomalous. Only consulted when FlightDir is set.
	Anomalous func(*facility.Result) bool `json:"-"`
}

// DefaultAnomalous is the stock anomaly predicate: a scenario that
// quarantined a node, requeued a job, or shed jobs to a budget emergency
// saw its degradation machinery bite and is worth a post-mortem.
func DefaultAnomalous(res *facility.Result) bool {
	return res.Quarantined > 0 || res.Requeued > 0 || res.Preempted > 0 || res.Killed > 0
}

// Scenario is one fully instantiated cell of the matrix.
type Scenario struct {
	Index        int
	Seed         uint64
	Interarrival time.Duration
	Budget       units.Power
	Policy       policy.Policy
	Fault        NamedFaultPlan
	Emergency    facility.EmergencyPolicy

	// run keys the facility run the scenario's result comes from.
	run runKey
}

// runKey names one group of scenarios sharing a run prefix by the
// scenario's axis indices (indices, not values: two policies may print
// alike). The emergency axis is not part of it: the responses of a cell
// differ only from the cell's divergence instant on.
type runKey struct {
	policy, interarrival, budget, fault, seed int
}

// emergencyLanes resolves the emergency axis: the configured sweep, or one
// lane carrying the base configuration's response.
func (c *Config) emergencyLanes() []facility.EmergencyPolicy {
	if len(c.Emergencies) == 0 {
		return []facility.EmergencyPolicy{c.Base.Emergency}
	}
	return c.Emergencies
}

// scenarios enumerates the matrix in canonical order: policy-major, then
// interarrival, budget, fault lane, emergency response, and seeds
// innermost — so one group's replications are contiguous and the group
// order matches the report.
func (c *Config) scenarios() []Scenario {
	plans := c.FaultPlans
	if len(plans) == 0 {
		plans = []NamedFaultPlan{{Name: "clean"}}
	}
	emergencies := c.emergencyLanes()
	out := make([]Scenario, 0, len(c.Policies)*len(c.Interarrivals)*len(c.Budgets)*len(plans)*len(emergencies)*len(c.Seeds))
	for pi, pol := range c.Policies {
		for ii, ia := range c.Interarrivals {
			for bi, budget := range c.Budgets {
				for fi, plan := range plans {
					for _, em := range emergencies {
						for si, seed := range c.Seeds {
							out = append(out, Scenario{
								Index:        len(out),
								Seed:         seed,
								Interarrival: ia,
								Budget:       budget,
								Policy:       pol,
								Fault:        plan,
								Emergency:    em,
								run:          runKey{pi, ii, bi, fi, si},
							})
						}
					}
				}
			}
		}
	}
	return out
}

// planRuns groups scenarios by run key: one group per shared run prefix,
// in matrix order of its first scenario.
func planRuns(run []Scenario) [][]int {
	var groups [][]int
	byKey := make(map[runKey]int, len(run))
	for pos, sc := range run {
		g, ok := byKey[sc.run]
		if !ok {
			g = len(groups)
			byKey[sc.run] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], pos)
	}
	return groups
}

func (c *Config) validate() error {
	if len(c.Seeds) == 0 {
		return errors.New("campaign: no seeds")
	}
	if len(c.Interarrivals) == 0 {
		return errors.New("campaign: no interarrival rates")
	}
	if len(c.Budgets) == 0 {
		return errors.New("campaign: no budgets")
	}
	if len(c.Policies) == 0 {
		return errors.New("campaign: no policies")
	}
	for _, p := range c.Policies {
		if p == nil {
			return errors.New("campaign: nil policy")
		}
	}
	// Checked here, not by each facility run: a scenario whose response
	// continues a shared run never validates its own configuration.
	for _, em := range c.Emergencies {
		if !em.Valid() {
			return fmt.Errorf("campaign: unknown emergency response %q", em)
		}
	}
	if c.Shards > 1 && (c.Shard < 0 || c.Shard >= c.Shards) {
		return fmt.Errorf("campaign: shard %d outside [0,%d)", c.Shard, c.Shards)
	}
	if c.Shards <= 1 && c.Shard != 0 {
		return errors.New("campaign: shard set without shards")
	}
	return nil
}

// Runner executes campaigns over a source node pool and a shared
// characterization database.
type Runner struct {
	// Nodes is the pristine source pool. It is never run on directly:
	// every scenario gets an isolated clone (reset in place between scenarios).
	Nodes []*node.Node
	// DB is the shared characterization database; it must cover
	// Base.Workloads. Campaign workers only read it (fault lanes corrupt
	// private clones), so one DB serves all scenarios.
	DB *charz.DB
	// Obs, when set, journals shard starts/finishes and counts scenarios;
	// it receives wall-clock data, which deliberately never reaches the
	// Report.
	Obs *obs.Sink
}

// Run executes the campaign matrix and aggregates the report. It plans
// the shard's scenarios into groups that differ only in their emergency
// response (planRuns) and runs each group on the worker pool: the shared
// prefix once, then a fork per further response (runGroup). The report is
// independent of Parallelism and of worker scheduling: scenario results
// are slotted by matrix index, aggregation follows matrix order, and on
// error the first failure in matrix order is returned (as Run's error,
// wrapped with its scenario), regardless of which worker hit an error
// first on the wall clock.
func (r *Runner) Run(ctx context.Context, cfg Config) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(r.Nodes) == 0 {
		return nil, errors.New("campaign: runner has no nodes")
	}
	scenarios := cfg.scenarios()

	// Sharding keeps the full enumeration (indexes address the whole
	// matrix) but runs only this shard's deterministic slice of it.
	run := scenarios
	if cfg.Shards > 1 {
		run = nil
		for _, sc := range scenarios {
			if sc.Index%cfg.Shards == cfg.Shard {
				run = append(run, sc)
			}
		}
		if len(run) == 0 {
			return &Report{Nodes: len(r.Nodes)}, nil
		}
	}
	groups := planRuns(run)

	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(groups) {
		workers = len(groups)
	}

	if cfg.FlightDir != "" {
		if err := os.MkdirAll(cfg.FlightDir, 0o755); err != nil {
			return nil, fmt.Errorf("campaign: flight dir: %w", err)
		}
	}

	// The campaign root span parents every scenario span; one trace covers
	// the whole matrix.
	root := r.Obs.StartSpan(obs.SpanContext{}, "campaign", "campaign").
		SetIter(len(run)).SetValue(float64(workers))
	defer root.End()

	results := make([]*facility.Result, len(scenarios))
	errs := make([]error, len(run))
	tasks := make(chan []int)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			pools := &workerPools{src: r.Nodes, run: cluster.NewPoolState(r.Nodes)}
			for group := range tasks {
				if err := ctx.Err(); err != nil {
					for _, pos := range group {
						errs[pos] = err
					}
					continue
				}
				r.runGroup(ctx, &cfg, run, group, worker, root.Ctx(), pools, results, errs)
			}
		}(w)
	}
	for _, group := range groups {
		tasks <- group
	}
	close(tasks)
	wg.Wait()

	for pos, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("campaign: scenario %d (%s): %w", run[pos].Index, describe(run[pos]), err)
		}
	}

	if cfg.Shards > 1 {
		rep := &Report{Nodes: len(r.Nodes), Scenarios: make([]ScenarioResult, len(run))}
		for i, sc := range run {
			rep.Scenarios[i] = scenarioResult(sc, results[sc.Index])
		}
		return rep, nil
	}
	return buildReport(len(r.Nodes), cfg, scenarios, results), nil
}

// workerPools are one worker's node pools: run, restored before every
// group, and fork, the target each fork copies run onto, built on the
// worker's first fork.
type workerPools struct {
	src       []*node.Node
	run, fork *cluster.PoolState
}

// forkTarget returns the fork pool holding a copy of the run pool's
// current state.
func (p *workerPools) forkTarget() (*cluster.PoolState, error) {
	if p.fork == nil {
		p.fork = cluster.NewPoolState(p.src)
	}
	return p.fork, p.fork.CopyFrom(p.run)
}

// runGroup runs one group (positions in run, all of one cell, differing
// only in their emergency response) and slots the outcome for every
// member. The distinct responses form lanes in group order. The last lane
// runs on the original instance; when the lane's budget timeline has a
// divergence instant and there is more than one lane, the original first
// stops one nanosecond before it, and each other lane forks from there
// onto the worker's fork pool and runs to the horizon. Without a
// divergence instant every lane shares the original's Result. Each member
// gets its own scenario span, shard start/done and flight record; each
// facility run's span hangs under the span of its lane's first member.
func (r *Runner) runGroup(ctx context.Context, cfg *Config, run []Scenario, group []int, worker int, parent obs.SpanContext, pools *workerPools, results []*facility.Result, errs []error) {
	anomalous := cfg.Anomalous
	if anomalous == nil {
		anomalous = DefaultAnomalous
	}
	starts := make([]time.Time, len(group))
	spans := make([]*obs.Span, len(group))
	var lanes []int                 // group index of each distinct response's first member
	lane := make([]int, len(group)) // group index -> lane
	for i, pos := range group {
		sc := run[pos]
		r.Obs.CampaignShardStart(sc.Policy.Name(), sc.Index, worker)
		starts[i] = time.Now()
		spans[i] = r.Obs.StartSpan(parent, "campaign", "scenario").
			SetScope(sc.Policy.Name()).SetIter(sc.Index).SetValue(sc.Budget.Watts())
		lane[i] = len(lanes)
		for l, first := range lanes {
			if run[group[first]].Emergency == sc.Emergency {
				lane[i] = l
				break
			}
		}
		if lane[i] == len(lanes) {
			lanes = append(lanes, i)
		}
	}

	last := len(lanes) - 1
	forks := make([]laneFork, last)
	for l := range forks {
		forks[l] = laneFork{em: run[group[lanes[l]]].Emergency, parent: spans[lanes[l]].Ctx()}
	}
	owner := run[group[lanes[last]]]
	res, laneErr := runLanes(ctx, r.facilityConfig(cfg, owner, spans[lanes[last]].Ctx(), pools.run), forks, pools)

	for i, pos := range group {
		sc := run[pos]
		sp := spans[i]
		errs[pos] = laneErr[lane[i]]
		if errs[pos] != nil {
			r.captureFlight(cfg, sc, "error", errs[pos], nil)
			sp.End()
			continue
		}
		results[sc.Index] = res[lane[i]]
		r.Obs.CampaignShardDone(sc.Policy.Name(), sc.Index, worker, time.Since(starts[i]).Seconds())
		if cfg.FlightDir != "" && anomalous(results[sc.Index]) {
			r.captureFlight(cfg, sc, "anomalous", nil, results[sc.Index])
		}
		sp.End()
	}
}

// laneFork is one lane a group forks: its response and the span its
// facility run hangs under.
type laneFork struct {
	em     facility.EmergencyPolicy
	parent obs.SpanContext
}

// runLanes runs fc on the worker's run pool, restored to pristine first so
// whatever an earlier run left behind (armed faults, degradation, energy
// accounting, power limits) is wiped, and one fork per entry of forks. It
// returns each lane's Result and error, the forks' first and fc's last.
// With a divergence instant the run stops one nanosecond before it and
// each fork continues from there on the fork pool; without one the forks
// share fc's Result.
func runLanes(ctx context.Context, fc facility.Config, forks []laneFork, pools *workerPools) ([]*facility.Result, []error) {
	n := len(forks) + 1
	res, errs := make([]*facility.Result, n), make([]error, n)
	fail := func(err error) ([]*facility.Result, []error) {
		for l := range errs {
			errs[l] = err
		}
		return res, errs
	}
	if err := pools.run.Restore(); err != nil {
		return fail(err)
	}
	in, err := facility.NewInstance(fc)
	if err != nil {
		return fail(err)
	}
	if err := in.Start(); err != nil {
		return fail(err)
	}
	at, diverges := fc.Divergence()
	if diverges && len(forks) > 0 {
		if err := in.Step(ctx, at-1); err != nil {
			in.Close()
			return fail(err)
		}
		for l, f := range forks {
			res[l], errs[l] = forkLane(ctx, in, f, pools)
		}
	}
	res[n-1], errs[n-1] = finish(ctx, in)
	if !diverges {
		for l := range forks {
			res[l], errs[l] = res[n-1], errs[n-1]
		}
	}
	return res, errs
}

// forkLane forks in under f's response onto the worker's fork pool and
// runs the fork to its horizon.
func forkLane(ctx context.Context, in *facility.Instance, f laneFork, pools *workerPools) (*facility.Result, error) {
	target, err := pools.forkTarget()
	if err != nil {
		return nil, err
	}
	fork, err := in.Fork(target.Nodes(), f.em, f.parent)
	if err != nil {
		return nil, err
	}
	return finish(ctx, fork)
}

// finish steps in to its horizon and closes it. A failed step still closes
// the instance, which hands its nodes back; its Result is dropped.
func finish(ctx context.Context, in *facility.Instance) (*facility.Result, error) {
	if err := in.Step(ctx, in.Horizon()); err != nil {
		in.Close()
		return nil, err
	}
	return in.Close()
}

// facilityConfig is the scenario's facility configuration on pool, its
// run span under parent.
func (r *Runner) facilityConfig(cfg *Config, sc Scenario, parent obs.SpanContext, pool *cluster.PoolState) facility.Config {
	fc := cfg.Base
	fc.Nodes = pool.Nodes()
	fc.DB = r.DB
	fc.Obs = r.Obs
	fc.SpanParent = parent
	fc.Seed = sc.Seed
	fc.MeanInterarrival = sc.Interarrival
	fc.SystemBudget = sc.Budget
	fc.Policy = sc.Policy
	fc.Faults = sc.Fault.Plan
	fc.Emergency = sc.Emergency
	return fc
}

// captureFlight writes one flight-recorder artifact for the scenario. The
// capture is post-mortem best-effort: a write failure is reported on the
// campaign's own sink and otherwise swallowed — flight recording must
// never turn a completed scenario into a failed one.
func (r *Runner) captureFlight(cfg *Config, sc Scenario, reason string, runErr error, res *facility.Result) {
	if cfg.FlightDir == "" {
		return
	}
	errText := ""
	if runErr != nil {
		errText = runErr.Error()
	}
	fr := obs.CaptureFlight(r.Obs, describe(sc), reason, errText, int64(sc.Seed))
	// The scenario's shape travels as opaque JSON so the artifact stays
	// self-describing without the flight recorder importing config types.
	summary := struct {
		Policy       string        `json:"policy"`
		Interarrival time.Duration `json:"interarrival_ns"`
		Budget       float64       `json:"budget_watts"`
		FaultLane    string        `json:"fault_lane"`
		Emergency    string        `json:"emergency,omitempty"`
		Duration     time.Duration `json:"duration_ns"`
		Tick         time.Duration `json:"tick_ns"`
		Nodes        int           `json:"nodes"`
	}{
		Policy:       sc.Policy.Name(),
		Interarrival: sc.Interarrival,
		Budget:       sc.Budget.Watts(),
		FaultLane:    sc.Fault.Name,
		Emergency:    string(sc.Emergency),
		Duration:     cfg.Base.Duration,
		Tick:         cfg.Base.Tick,
		Nodes:        len(r.Nodes),
	}
	if b, err := json.Marshal(summary); err == nil {
		fr.Config = b
	}
	if sc.Fault.Plan != nil {
		if b, err := json.Marshal(sc.Fault.Plan); err == nil {
			fr.FaultPlan = b
		}
	}
	if res != nil {
		if b, err := json.Marshal(res); err == nil {
			fr.Result = b
		}
	}
	path := filepath.Join(cfg.FlightDir, fmt.Sprintf("flight-%04d-%s.json", sc.Index, reason))
	if err := fr.WriteFile(path); err != nil {
		r.Obs.Record(obs.Event{Type: "flight_write_failed", Layer: "campaign", Scope: path})
	}
}

func describe(sc Scenario) string {
	s := fmt.Sprintf("policy=%s ia=%s budget=%s fault=%s seed=%d",
		sc.Policy.Name(), sc.Interarrival, sc.Budget, sc.Fault.Name, sc.Seed)
	if sc.Emergency != "" {
		s += fmt.Sprintf(" emergency=%s", sc.Emergency)
	}
	return s
}
