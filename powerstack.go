// Package powerstack is a unified HPC power management stack: a resource
// manager with system-wide power awareness integrated with a GEOPM-style,
// application-aware job runtime, reproducing "Introducing Application
// Awareness Into a Unified Power Management Stack" (Wilson et al., IPDPS
// Workshops 2021).
//
// The package is the public facade over the internal substrates:
//
//   - a simulated msr-safe/RAPL register interface and an analytic
//     Broadwell socket power/performance model (internal/msr, internal/rapl,
//     internal/cpumodel),
//   - the synthetic compute-intensity kernel and the bulk-synchronous
//     execution engine (internal/kernel, internal/bsp),
//   - the GEOPM-style job runtime with monitor, governor, and power
//     balancer agents (internal/geopm),
//   - the characterization pipeline, resource manager, and the five
//     Section III power policies (internal/charz, internal/rm,
//     internal/policy), and
//   - the evaluation harness regenerating every table and figure
//     (internal/workload, internal/sim).
//
// # Quick start
//
//	sys, err := powerstack.NewSystem(powerstack.Options{ClusterSize: 64, Seed: 1})
//	...
//	ctx := context.Background()
//	err = sys.Characterize(ctx, cfgs, powerstack.QuickCharacterization())
//	mix := workload.WastefulPower().Scaled(40)
//	result, err := sys.RunMix(ctx, mix, 50)
//
// See examples/ for complete programs.
package powerstack

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"powerstack/internal/bsp"
	"powerstack/internal/campaign"
	"powerstack/internal/charz"
	"powerstack/internal/cluster"
	"powerstack/internal/coordinator"
	"powerstack/internal/cpumodel"
	"powerstack/internal/facility"
	"powerstack/internal/fault"
	"powerstack/internal/kernel"
	"powerstack/internal/node"
	"powerstack/internal/obs"
	"powerstack/internal/policy"
	"powerstack/internal/rm"
	"powerstack/internal/sim"
	"powerstack/internal/stats"
	"powerstack/internal/units"
	"powerstack/internal/workload"
)

// Re-exported core types, so downstream code can work entirely through the
// facade for the common paths.
type (
	// KernelConfig is one synthetic-kernel variant (intensity, vector
	// width, waiting ranks, imbalance).
	KernelConfig = kernel.Config
	// Mix is one Table II workload mix.
	Mix = workload.Mix
	// Budgets holds the Table III min/ideal/max budgets of a mix.
	Budgets = workload.Budgets
	// Policy is a Section III power management policy.
	Policy = policy.Policy
	// CharacterizationDB stores the per-workload monitor/balancer
	// characterization.
	CharacterizationDB = charz.DB
	// Cell is one (mix, policy, budget) evaluation measurement.
	Cell = sim.Cell
	// Savings is one Figure 8 comparison against StaticCaps.
	Savings = sim.Savings
	// Grid is a full Figure 7/8 evaluation.
	Grid = sim.Grid
	// MixResult is one mix's cells and savings.
	MixResult = sim.MixResult
	// Sink is the observability sink: a metrics registry, a bounded
	// decision-event journal, a virtual-time span log, and a live-stream
	// broadcaster. A nil *Sink is valid and free.
	Sink = obs.Sink
	// DebugServer is a running observability HTTP server.
	DebugServer = obs.Server
	// SpanContext names a tracing span so spans opened across layers link
	// into one causal trace (campaign → scenario → facility run → replan →
	// cap write).
	SpanContext = obs.SpanContext
	// Span is an in-flight tracing span handle; nil is valid and free.
	Span = obs.Span
	// FlightRecord is a self-contained per-scenario post-mortem artifact:
	// config, seed, fault plan, metrics snapshot, journal tail, and spans.
	FlightRecord = obs.FlightRecord
	// FaultPlan is a deterministic, seed-reproducible set of fault
	// injections (MSR faults, node crashes, slow nodes, telemetry
	// dropouts, characterization corruption). Nil and empty plans inject
	// nothing.
	FaultPlan = fault.Plan
	// FaultInjection is one declarative fault of a plan.
	FaultInjection = fault.Injection
	// FaultGenOptions shape GenerateFaults.
	FaultGenOptions = fault.GenOptions
	// FacilityConfig shapes a trace-driven machine-room simulation.
	FacilityConfig = facility.Config
	// FacilityResult summarizes a facility simulation: the power trace,
	// job throughput, and fault/degradation counters.
	FacilityResult = facility.Result
	// BudgetStep is one scheduled facility-budget change of a
	// FacilityConfig.BudgetSteps timeline (demand-response windows, price
	// curves).
	BudgetStep = facility.BudgetStep
	// EmergencyPolicy selects the facility's response when a budget change
	// strands committed power above the new budget: preempt at checkpoint,
	// throttle everyone, or kill.
	EmergencyPolicy = facility.EmergencyPolicy
	// CampaignConfig shapes a multi-seed campaign: a base facility
	// configuration plus the scenario matrix swept over it.
	CampaignConfig = campaign.Config
	// CampaignReport is a campaign's deterministic output: per-scenario
	// results, per-group statistics, and policy comparisons.
	CampaignReport = campaign.Report
	// CampaignFaultPlan pairs a fault plan with its report label for the
	// campaign fault-lane axis.
	CampaignFaultPlan = campaign.NamedFaultPlan
	// CharacterizationCache memoizes characterization runs process-wide,
	// keyed by kernel config, platform, and options.
	CharacterizationCache = charz.Cache
	// CoordinationResult aggregates a Coordinate run.
	CoordinationResult = coordinator.Result
)

// Sentinel errors exposed as API: match them with errors.Is on anything
// the facade returns. Every internal wrap uses %w, so the job, node, and
// configuration context in the message never hides the category.
var (
	// ErrNotCharacterized reports a workload configuration absent from
	// the characterization database.
	ErrNotCharacterized = charz.ErrNotCharacterized
	// ErrInsufficientNodes reports a job submission larger than the node
	// pool could ever satisfy.
	ErrInsufficientNodes = rm.ErrInsufficientNodes
	// ErrNodeQuarantined reports a submission blocked only by nodes in
	// the quarantine drain set — retry after repairs rejoin them.
	ErrNodeQuarantined = rm.ErrNodeQuarantined
	// ErrBudgetInfeasible reports a job whose power demand exceeds the
	// whole system budget.
	ErrBudgetInfeasible = rm.ErrBudgetInfeasible
)

// The injectable fault classes, for hand-built plans (GenerateFaults covers
// the common randomized case).
const (
	FaultMSRWrite         = fault.MSRWriteFault
	FaultMSRRead          = fault.MSRReadFault
	FaultNodeCrash        = fault.NodeCrash
	FaultSlowNode         = fault.SlowNode
	FaultTelemetryDropout = fault.TelemetryDropout
	FaultRequestDropout   = fault.RequestDropout
	FaultCharzCorruption  = fault.CharzCorruption
	FaultBudgetDrop       = fault.BudgetDrop
)

// The budget-emergency responses, for FacilityConfig.Emergency and the
// campaign's Emergencies axis.
const (
	EmergencyPreempt  = facility.EmergencyPreempt
	EmergencyThrottle = facility.EmergencyThrottle
	EmergencyKill     = facility.EmergencyKill
)

// GenerateFaults builds a deterministic fault plan over the given node IDs:
// the same seed and options always yield the same plan.
func GenerateFaults(nodeIDs []string, opts FaultGenOptions) *FaultPlan {
	return fault.Generate(nodeIDs, opts)
}

// Options configure a simulated system.
type Options struct {
	// ClusterSize is the node population to simulate (the paper surveys
	// 2000 and runs on 900 of the medium-frequency cluster). It must be
	// large enough for the mixes you plan to run plus CharNodes.
	ClusterSize int
	// Seed drives hardware-variation sampling and OS noise.
	Seed uint64
	// SelectMediumCluster applies the Figure 6 methodology (frequency
	// survey + 3-way k-means) and keeps only the medium cluster for
	// experiments, as the paper does. Requires a population large enough
	// to cluster meaningfully.
	SelectMediumCluster bool
	// CharNodes is how many nodes are reserved for characterization runs
	// (default 8; the paper uses 100 test nodes).
	CharNodes int
}

// System is a ready-to-use simulated cluster with its characterization
// database.
type System struct {
	// Cluster is the full simulated node population.
	Cluster *cluster.Cluster
	// Pool is the experiment node set (after optional medium-cluster
	// selection, minus the characterization nodes).
	Pool []*node.Node
	// CharPool is the node set reserved for characterization runs.
	CharPool []*node.Node
	// DB accumulates characterization entries.
	DB *charz.DB
	// Clustering is the Figure 6 partition when medium selection ran.
	Clustering *stats.Clustering
	// Obs is the system's observability sink after EnableObservability;
	// nil until then, which keeps every instrumented hot path free.
	Obs *obs.Sink
	// Faults is an optional deterministic fault plan applied by RunMix,
	// Evaluate, and RunFacility. Nil (or empty) injects nothing and
	// reproduces the fault-free results byte for byte.
	Faults *FaultPlan

	seed uint64
}

// EnableObservability creates (once) the system's metrics/trace sink and
// attaches it to every node's RAPL plumbing, so subsequent Characterize,
// RunMix, Evaluate, and Coordinate calls record metrics and decision
// events. It returns the sink for export (WritePrometheus, WriteTrace).
func (s *System) EnableObservability() *obs.Sink {
	if s.Obs == nil {
		s.Obs = obs.New()
		for _, n := range s.Cluster.Nodes() {
			n.SetObs(s.Obs)
		}
	}
	return s.Obs
}

// ServeDebug enables observability and starts the debug HTTP server on
// addr, exposing /metrics (Prometheus text), /events (decision journal),
// /trace (Chrome trace JSON of events and spans), /spans (JSONL span log),
// /stream/events and /stream/metrics (live SSE feeds), /healthz, and
// /debug/pprof. Use addr ":0" to pick a free port and read it back with
// Addr.
//
// The returned handle's Shutdown(ctx) drains gracefully: live SSE clients
// are disconnected first, then in-flight requests finish (bounded by the
// Shutdown context). Cancelling the ctx given here triggers the same
// graceful drain, so a server tied to a signal context needs no extra
// plumbing.
func (s *System) ServeDebug(ctx context.Context, addr string) (*obs.Server, error) {
	srv, err := obs.Serve(addr, s.EnableObservability())
	if err != nil {
		return nil, err
	}
	if ctx.Done() != nil {
		go func() {
			<-ctx.Done()
			drain, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(drain) //nolint:errcheck // best-effort drain on ctx cancel
		}()
	}
	return srv, nil
}

// ReadFlightRecord parses a flight-recorder artifact written by a campaign
// with CampaignConfig.FlightDir set (see also cmd/obsdump flight).
func ReadFlightRecord(path string) (*FlightRecord, error) {
	return obs.ReadFlightFile(path)
}

// NewSystem builds a simulated Quartz-class system.
func NewSystem(opts Options) (*System, error) {
	if opts.ClusterSize <= 0 {
		return nil, errors.New("powerstack: ClusterSize must be positive")
	}
	charNodes := opts.CharNodes
	if charNodes <= 0 {
		charNodes = 8
	}
	c, err := cluster.New(opts.ClusterSize, cpumodel.Quartz(), cpumodel.QuartzVariation(), opts.Seed)
	if err != nil {
		return nil, err
	}
	sys := &System{Cluster: c, DB: charz.NewDB(), seed: opts.Seed}

	nodes := c.Nodes()
	if opts.SelectMediumCluster {
		medium, cl, err := c.MediumNodes()
		if err != nil {
			return nil, err
		}
		sys.Clustering = cl
		nodes = medium
	}
	if len(nodes) <= charNodes {
		return nil, fmt.Errorf("powerstack: %d usable nodes cannot spare %d for characterization", len(nodes), charNodes)
	}
	sys.CharPool = nodes[:charNodes]
	sys.Pool = nodes[charNodes:]
	return sys, nil
}

// QuickCharacterization returns characterization options sized for demos
// and tests (fewer iterations than the paper's runs).
func QuickCharacterization() charz.Options {
	return charz.Options{MonitorIters: 10, BalancerIters: 50, Seed: 2, NoiseSigma: -1}
}

// Characterize runs the two-pass characterization for every given config on
// the system's characterization pool, merging results into the database.
// Cancelling ctx stops between configurations with ctx's error.
func (s *System) Characterize(ctx context.Context, configs []KernelConfig, opt charz.Options) error {
	db, err := charz.CharacterizeAll(ctx, configs, s.CharPool, opt)
	if err != nil {
		return err
	}
	for _, e := range db.Entries {
		s.DB.Put(e)
	}
	return nil
}

// NewCharacterizationCache returns an empty process-wide characterization
// cache for CharacterizeCached.
func NewCharacterizationCache() *CharacterizationCache { return charz.NewCache() }

// LoadCharacterizationCache loads a cache persisted with its SaveFile
// method, so repeat campaign invocations skip characterization entirely.
func LoadCharacterizationCache(path string) (*CharacterizationCache, error) {
	return charz.LoadCacheFile(path)
}

// CharacterizeCached is Characterize through a memoizing cache: a
// configuration whose (config, platform, options) key is already cached is
// served without simulation, and misses characterize on the CharPool and
// populate both the cache and the database. Concurrent callers of the same
// key share one characterization run.
func (s *System) CharacterizeCached(ctx context.Context, configs []KernelConfig, opt charz.Options, cache *CharacterizationCache) error {
	if cache.Obs == nil {
		cache.Obs = s.Obs
	}
	for _, cfg := range configs {
		e, _, err := cache.GetOrCharacterize(ctx, cfg, s.CharPool, opt)
		if err != nil {
			return err
		}
		s.DB.Put(e)
	}
	return nil
}

// CharacterizeMixes characterizes every distinct configuration the mixes
// use.
func (s *System) CharacterizeMixes(ctx context.Context, mixes []Mix, opt charz.Options) error {
	seen := map[string]bool{}
	var configs []KernelConfig
	for _, m := range mixes {
		for _, cfg := range m.Configs() {
			if !seen[cfg.Name()] {
				seen[cfg.Name()] = true
				configs = append(configs, cfg)
			}
		}
	}
	return s.Characterize(ctx, configs, opt)
}

// RunnerOptions tunes grid evaluation (RunMixWith, EvaluateWith) without
// exposing the internal simulation runner. The zero value reproduces the
// system defaults, so RunMix(ctx, mix, iters) is exactly
// RunMixWith(ctx, mix, RunnerOptions{Iters: iters}).
type RunnerOptions struct {
	// Iters is the per-run iteration count; zero keeps the paper's 100.
	Iters int
	// Seed overrides the evaluation seed; zero keeps the system seed
	// derivation, so paired comparisons across policies stay paired.
	Seed uint64
	// NoiseSigma, when non-nil, overrides every job's BSP noise sigma —
	// a pointer so an explicit zero (fully deterministic iterations) is
	// distinguishable from "keep the characterized noise".
	NoiseSigma *float64
	// Parallelism is how many workers execute evaluation cells: zero
	// selects all CPUs, one recovers the sequential grid. Results are
	// byte-identical at every level.
	Parallelism int
}

// runner materializes the internal evaluation runner from options.
func (s *System) runner(opts RunnerOptions) *sim.Runner {
	r := sim.NewRunner(s.Pool, s.DB)
	r.Seed = s.seed + 1000
	if opts.Seed != 0 {
		r.Seed = opts.Seed
	}
	if opts.Iters > 0 {
		r.Iters = opts.Iters
	}
	if opts.NoiseSigma != nil {
		r.NoiseSigma = *opts.NoiseSigma
	}
	r.Parallelism = opts.Parallelism
	r.Obs = s.Obs
	r.Faults = s.Faults
	return r
}

// RunMix evaluates one mix across all budgets and policies. Cancelling ctx
// abandons the run at the next job run boundary and returns an error matching
// errors.Is(err, context.Canceled); every node is left capped at TDP.
func (s *System) RunMix(ctx context.Context, mix Mix, iters int) (MixResult, error) {
	return s.RunMixWith(ctx, mix, RunnerOptions{Iters: iters})
}

// RunMixWith is RunMix with the full evaluation options surface.
func (s *System) RunMixWith(ctx context.Context, mix Mix, opts RunnerOptions) (MixResult, error) {
	return s.runner(opts).RunMix(ctx, mix)
}

// Evaluate runs the full Figure 7/8 grid over the given mixes. Cancellation
// behaves as in RunMix.
func (s *System) Evaluate(ctx context.Context, mixes []Mix, iters int) (*Grid, error) {
	return s.EvaluateWith(ctx, mixes, RunnerOptions{Iters: iters})
}

// EvaluateWith is Evaluate with the full evaluation options surface.
func (s *System) EvaluateWith(ctx context.Context, mixes []Mix, opts RunnerOptions) (*Grid, error) {
	return s.runner(opts).Run(ctx, mixes)
}

// RunFacility executes a trace-driven machine-room simulation over the
// system's experiment pool. Zero-value cfg fields are defaulted from the
// system: Nodes from Pool, DB from the characterization database, Obs from
// the system sink, Faults from the system plan, Seed from the system seed.
// Cancelling ctx stops the run at the next event boundary.
func (s *System) RunFacility(ctx context.Context, cfg FacilityConfig) (*FacilityResult, error) {
	if cfg.Nodes == nil {
		cfg.Nodes = s.Pool
	}
	if cfg.DB == nil {
		cfg.DB = s.DB
	}
	if cfg.Obs == nil {
		cfg.Obs = s.Obs
	}
	if cfg.Faults == nil {
		cfg.Faults = s.Faults
	}
	if cfg.Seed == 0 {
		cfg.Seed = s.seed + 2000
	}
	return facility.Run(ctx, cfg)
}

// RunCampaign fans a scenario matrix of facility simulations across a
// bounded worker pool over the system's experiment pool and shared
// characterization database, aggregating per-group statistics and policy
// comparisons. The report is byte-identical at any cfg.Parallelism.
func (s *System) RunCampaign(ctx context.Context, cfg CampaignConfig) (*CampaignReport, error) {
	r := &campaign.Runner{Nodes: s.Pool, DB: s.DB, Obs: s.Obs}
	return r.Run(ctx, cfg)
}

// MergeCampaignReports joins the partial reports of sharded campaign runs
// (CampaignConfig.Shards > 1) into the full report, byte-identical to a
// single-process run of the same matrix.
func MergeCampaignReports(shards ...*CampaignReport) (*CampaignReport, error) {
	return campaign.MergeReports(shards...)
}

// ReadCampaignReport deserializes a report written by WriteJSON.
func ReadCampaignReport(r io.Reader) (*CampaignReport, error) {
	return campaign.ReadReport(r)
}

// Policies returns every policy in the paper's presentation order.
func Policies() []Policy { return policy.All() }

// DynamicPolicies returns the three dynamic policies of Figure 8.
func DynamicPolicies() []Policy { return policy.Dynamic() }

// PolicyByName resolves a policy by its report name ("MixedAdaptive"),
// ignoring case and the separators "-" and "_".
func PolicyByName(name string) (Policy, error) { return policy.ByName(name) }

// Coordinate runs the mix under the execution-time coordination protocol
// (the paper's future work: no pre-characterization; job runtimes
// renegotiate budgets with the resource manager every iteration) on the
// system's experiment pool. Cancelling ctx stops between protocol rounds.
// The system fault plan's request dropouts exercise the hold-then-
// redistribute degradation path.
func (s *System) Coordinate(ctx context.Context, mix Mix, budget units.Power, iters int) (coordinator.Result, error) {
	if mix.TotalNodes() > len(s.Pool) {
		return coordinator.Result{}, fmt.Errorf("powerstack: mix needs %d nodes, pool has %d", mix.TotalNodes(), len(s.Pool))
	}
	pool := s.Pool
	var jobs []*bsp.Job
	for i, js := range mix.Jobs {
		j, err := bsp.NewJob(js.ID, js.Config, pool[:js.Nodes], s.seed+uint64(i)*31)
		if err != nil {
			return coordinator.Result{}, err
		}
		pool = pool[js.Nodes:]
		jobs = append(jobs, j)
	}
	defer func() {
		for _, j := range jobs {
			for _, n := range j.Nodes() {
				n.SetPowerLimit(n.TDP()) //nolint:errcheck // best-effort reset
			}
		}
	}()
	coord, err := coordinator.New(budget, jobs, true)
	if err != nil {
		return coordinator.Result{}, err
	}
	coord.SetObs(s.Obs)
	coord.Faults = s.Faults
	return coord.Run(ctx, iters)
}
