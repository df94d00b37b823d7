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
// Scenarios that differ only in their emergency response share one
// facility run when their budget is constant (facility.Config.ConstantBudget):
// the response is read only when a budget change strands committed power,
// and such a run has no budget change, so its Result is the same under
// every response.
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
	// Empty runs one lane with Base.Emergency. A lane whose budget never
	// changes runs one facility run for all responses (see Runner.Run).
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

// runKey names one distinct facility run by the scenario's axis indices
// (indices, not values: two policies may print alike). Emergency is -1 on a
// lane whose budget never changes, so every response of that lane maps to
// one run.
type runKey struct {
	policy, interarrival, budget, fault, emergency, seed int
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
	constant := make([]bool, len(plans))
	for fi, plan := range plans {
		fc := c.Base
		fc.Faults = plan.Plan
		constant[fi] = fc.ConstantBudget()
	}
	out := make([]Scenario, 0, len(c.Policies)*len(c.Interarrivals)*len(c.Budgets)*len(plans)*len(emergencies)*len(c.Seeds))
	for pi, pol := range c.Policies {
		for ii, ia := range c.Interarrivals {
			for bi, budget := range c.Budgets {
				for fi, plan := range plans {
					for ei, em := range emergencies {
						runEm := ei
						if constant[fi] {
							runEm = -1
						}
						for si, seed := range c.Seeds {
							out = append(out, Scenario{
								Index:        len(out),
								Seed:         seed,
								Interarrival: ia,
								Budget:       budget,
								Policy:       pol,
								Fault:        plan,
								Emergency:    em,
								run:          runKey{pi, ii, bi, fi, runEm, si},
							})
						}
					}
				}
			}
		}
	}
	return out
}

// planRuns groups scenarios by run key: one group per distinct facility
// run, in matrix order of its first scenario, which owns the run.
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
	// Checked here, not by each facility run: a scenario sharing another
	// response's run never validates its own.
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
// the shard's scenarios into distinct facility runs (planRuns), executes
// each run once on the worker pool and hands its result to every scenario
// of its group. The report is independent of Parallelism and of worker
// scheduling: scenario results are slotted by matrix index, aggregation
// follows matrix order, and on error the first failure in matrix order is
// returned (as Run's error, wrapped with its scenario), regardless of
// which worker hit an error first on the wall clock.
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
			pool := cluster.NewPoolState(r.Nodes)
			for group := range tasks {
				if err := ctx.Err(); err != nil {
					for _, pos := range group {
						errs[pos] = err
					}
					continue
				}
				r.runGroup(ctx, &cfg, run, group, worker, root.Ctx(), pool, results, errs)
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

// runGroup executes one distinct facility run for its group (positions in
// run, owner first) and slots the outcome for every member. Each member
// still gets its own scenario span, shard start/done and flight record;
// the owner's span parents the facility run.
func (r *Runner) runGroup(ctx context.Context, cfg *Config, run []Scenario, group []int, worker int, parent obs.SpanContext, pool *cluster.PoolState, results []*facility.Result, errs []error) {
	anomalous := cfg.Anomalous
	if anomalous == nil {
		anomalous = DefaultAnomalous
	}
	var res *facility.Result
	var err error
	for i, pos := range group {
		sc := run[pos]
		r.Obs.CampaignShardStart(sc.Policy.Name(), sc.Index, worker)
		start := time.Now()
		sp := r.Obs.StartSpan(parent, "campaign", "scenario").
			SetScope(sc.Policy.Name()).SetIter(sc.Index).SetValue(sc.Budget.Watts())
		if i == 0 {
			res, err = r.runFacility(ctx, cfg, sc, sp.Ctx(), pool)
		}
		errs[pos] = err
		if err != nil {
			r.captureFlight(cfg, sc, "error", err, nil)
			sp.End()
			continue
		}
		results[sc.Index] = res
		r.Obs.CampaignShardDone(sc.Policy.Name(), sc.Index, worker, time.Since(start).Seconds())
		if cfg.FlightDir != "" && anomalous(res) {
			r.captureFlight(cfg, sc, "anomalous", nil, res)
		}
		sp.End()
	}
}

// runFacility runs the scenario's facility simulation on the worker's
// pool, restored to pristine first so whatever an earlier run left behind
// (armed faults, degradation, energy accounting, power limits) is wiped.
func (r *Runner) runFacility(ctx context.Context, cfg *Config, sc Scenario, parent obs.SpanContext, pool *cluster.PoolState) (*facility.Result, error) {
	if err := pool.Restore(); err != nil {
		return nil, err
	}
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
	return facility.Run(ctx, fc)
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
