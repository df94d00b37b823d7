// Package facility is the capstone integration of the stack: a
// trace-driven simulation of a whole machine room over hours of simulated
// wall-clock. Jobs arrive as a Poisson process, the power-aware scheduler
// admits them against node and power budgets, a Section III policy
// distributes per-host caps whenever the running set changes, the
// bulk-synchronous engine advances every running job (fast-forwarding
// through steady state), and the telemetry hierarchy samples facility
// power — producing, bottom-up, the kind of trace Figure 1 shows top-down.
//
// Time advances on one discrete-event core (event.go): arrivals, job
// completions, faults, budget changes, policy replans, and telemetry
// samples fire at their exact virtual times on internal/engine, and the
// clock jumps straight from one event to the next — a lightly loaded month
// costs what its events cost. Telemetry samples read the hierarchy through
// its dirty set: every energy-state change marks the touched leaves, so a
// sample costs O(changed nodes), not O(nodes).
package facility

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"powerstack/internal/charz"
	"powerstack/internal/coordinator"
	"powerstack/internal/engine"
	"powerstack/internal/fault"
	"powerstack/internal/kernel"
	"powerstack/internal/node"
	"powerstack/internal/obs"
	"powerstack/internal/policy"
	"powerstack/internal/rm"
	"powerstack/internal/telemetry"
	"powerstack/internal/units"
)

// Config shapes a facility simulation.
type Config struct {
	// Nodes is the cluster to simulate over.
	Nodes []*node.Node
	// DB must characterize every config in Workloads.
	DB *charz.DB
	// Policy distributes power across the running set (nil = StaticCaps).
	Policy policy.Policy
	// SystemBudget is the facility power limit — the initial value of the
	// budget timeline when BudgetSteps or fault-plan budget drops are
	// present, the constant budget otherwise.
	SystemBudget units.Power
	// BudgetSteps schedules facility budget changes (demand-response
	// windows, price curves): from each step's At onward the scheduled
	// budget is its Budget. Empty keeps the budget at SystemBudget except
	// during fault-plan BudgetDrop windows. Steps at the same instant
	// resolve to the last declaration.
	BudgetSteps []BudgetStep
	// Emergency selects the response when a budget change strands the
	// running set's committed power above the new budget: EmergencyPreempt
	// (the default, "" selects it), EmergencyThrottle, or EmergencyKill.
	Emergency EmergencyPolicy
	// CheckpointEvery is the jobs' checkpoint cadence in iterations:
	// preempted (or crash-requeued) jobs resume from their last checkpoint
	// boundary instead of iteration zero. Zero disables checkpointing —
	// a preempted job restarts from scratch.
	CheckpointEvery int

	// MeanInterarrival is the Poisson arrival process' mean gap.
	MeanInterarrival time.Duration
	// JobIterations samples job lengths uniformly from [Min, Max].
	MinJobIterations, MaxJobIterations int
	// JobSizes are the node counts jobs request (sampled uniformly).
	JobSizes []int
	// Workloads is the kernel-config population (sampled uniformly).
	Workloads []kernel.Config
	// DisableArrivals turns off the synthetic Poisson arrival process —
	// service mode, where every job is an external Instance.Inject
	// submission. With it set, MeanInterarrival, the job-iteration range,
	// JobSizes, and Workloads become optional.
	DisableArrivals bool

	// Duration is the simulated span; Tick the telemetry sampling cadence
	// (any positive value — a final sample lands exactly at Duration when
	// it is not a whole number of Ticks). Tick also defaults the service
	// layer's pacing quantum.
	Duration time.Duration
	Tick     time.Duration

	// ScaleMode selects the replan's policy scope: ScaleAuto (the
	// default) runs one flat policy round over every running job up to
	// ScaleThreshold nodes and rack/room rounds above it; ScaleOn runs
	// rack/room rounds at any size. Every replan, at either scope, writes
	// only the caps that changed and re-probes only fresh or changed jobs.
	// See scale.go.
	ScaleMode string
	// Parallelism is the facility's worker count: the rack/room scope's
	// rooms and each telemetry sample's job settlement and leaf reads run
	// on up to Parallelism workers (0 and 1 run them inline, without
	// goroutines). Results are byte-identical at every setting. See
	// parallel.go.
	Parallelism int

	Seed uint64

	// Faults is an optional deterministic fault plan. Crashes drain nodes
	// mid-run (requeueing their jobs) and scheduled repairs rejoin them;
	// MSR faults exercise the manager's retry/quarantine path; telemetry
	// dropouts hold samples; characterization corruption triggers policy
	// fallbacks. Nil or empty injects nothing.
	Faults *fault.Plan
	// Obs journals every fault, degradation, and engine-dispatch decision;
	// nil disables instrumentation. The facility derives a virtual-clock
	// view of this sink (obs.Sink.WithVClock) so events and spans recorded
	// during the run carry their simulated timestamps.
	Obs *obs.Sink
	// SpanParent links the run's root span into an enclosing trace (a
	// campaign scenario); the zero value starts a new trace.
	SpanParent obs.SpanContext
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	switch {
	case len(c.Nodes) == 0:
		return errors.New("facility: no nodes")
	case c.DB == nil:
		return errors.New("facility: no characterization database")
	case c.SystemBudget <= 0:
		return errors.New("facility: budget must be positive")
	case !c.DisableArrivals && c.MeanInterarrival <= 0:
		return errors.New("facility: interarrival must be positive")
	case !c.DisableArrivals && (c.MinJobIterations <= 0 || c.MaxJobIterations < c.MinJobIterations):
		return errors.New("facility: bad job-iteration range")
	case !c.DisableArrivals && len(c.JobSizes) == 0:
		return errors.New("facility: no job sizes")
	case !c.DisableArrivals && len(c.Workloads) == 0:
		return errors.New("facility: no workloads")
	case c.Tick <= 0 || c.Duration < c.Tick:
		return errors.New("facility: bad tick/duration")
	case c.CheckpointEvery < 0:
		return errors.New("facility: checkpoint cadence must not be negative")
	case c.Parallelism < 0:
		return errors.New("facility: parallelism must not be negative")
	}
	if !c.Emergency.Valid() {
		return fmt.Errorf("facility: unknown emergency policy %q (want %q, %q, or %q)",
			c.Emergency, EmergencyPreempt, EmergencyThrottle, EmergencyKill)
	}
	for i, s := range c.BudgetSteps {
		if s.At < 0 {
			return fmt.Errorf("facility: budget step %d at negative time %v", i, s.At)
		}
		if s.Budget <= 0 {
			return fmt.Errorf("facility: budget step %d budget must be positive (got %v)", i, s.Budget)
		}
	}
	if c.ScaleMode != ScaleAuto && c.ScaleMode != ScaleOn {
		return fmt.Errorf("facility: unknown scale mode %q (want %q or %q)", c.ScaleMode, ScaleAuto, ScaleOn)
	}
	for _, s := range c.JobSizes {
		if s <= 0 || s > len(c.Nodes) {
			return fmt.Errorf("facility: job size %d outside the cluster", s)
		}
	}
	for _, w := range c.Workloads {
		if _, err := c.DB.MustGet(w); err != nil {
			return err
		}
	}
	return nil
}

// Result summarizes a facility simulation.
type Result struct {
	// Trace is the facility power series, one sample per telemetry
	// interval (Tick), plus a final sample at the horizon when Duration is
	// not a whole number of Ticks.
	Trace []telemetry.Sample
	// Submitted, Started, and Completed count jobs.
	Submitted, Started, Completed int
	// QueuedAtEnd counts jobs still waiting in the scheduler queue when
	// the run's horizon is reached — submitted but never started.
	QueuedAtEnd int
	// MeanQueueWait averages the submit-to-start delay over jobs that
	// started; jobs still queued at the end (QueuedAtEnd) never started
	// and are deliberately excluded — a facility drowning in arrivals can
	// therefore report a short wait next to a large QueuedAtEnd.
	MeanQueueWait time.Duration
	// MeanNodeUtilization is the time-averaged fraction of busy nodes.
	MeanNodeUtilization float64
	// MeanPower and PeakPower summarize the trace.
	MeanPower units.Power
	PeakPower units.Power
	// TotalEnergy is the facility CPU energy over the run.
	TotalEnergy units.Energy
	// BudgetViolationTicks counts observations of facility power above the
	// budget in force: every trace sample is checked against the current
	// (possibly stepped or dropped) budget, and every downward budget
	// change additionally re-checks the last sample against the new value —
	// so an excursion created by a mid-interval drop is counted when the
	// drop lands rather than silently missed until the next sample. Power
	// between samples is still unobserved; the count is a lower bound.
	BudgetViolationTicks int
	// BudgetChanges counts applied budget-timeline changes: scheduled
	// steps and fault-plan drop edges that changed the effective value
	// (same-value steps are not changes).
	BudgetChanges int
	// Preempted, Killed, and Resumed count emergency responses: jobs
	// preempted at their last checkpoint (requeued, to resume later), jobs
	// killed outright (progress lost), and checkpoint restores at restart.
	// Rejected counts submissions refused because their demand exceeded
	// the budget in force at enqueue time (a degradation, not an error).
	Preempted, Killed, Resumed, Rejected int
	// Requeued counts jobs returned to the queue after a crash or a failed
	// power-limit read drained one of their hosts; Quarantined and
	// Rejoined count node drain-set entries and exits over the run (every
	// quarantine reason: crash drains, failed cap writes, failed limit
	// reads, failed releases).
	Requeued, Quarantined, Rejoined int
	// EventsDispatched counts the discrete events the engine dispatched —
	// the run's work measure.
	EventsDispatched int
}

// simState is one facility simulation: validated config, corrupt database
// view, managers, telemetry hierarchy, RNG, the per-job records, and the
// discrete-event core that advances them (event.go).
type simState struct {
	cfg   Config
	pol   policy.Policy
	db    *charz.DB
	rng   *rand.Rand
	mgr   *rm.Manager
	sched *rm.Scheduler
	root  *telemetry.Hierarchy
	res   *Result
	start time.Time // wall-clock epoch of virtual time zero
	// nodeByID resolves fault-plan and wire node IDs. Below that boundary
	// a node is addressed by its slot (node.Node.Slot), which mgr assigns
	// as its position in cfg.Nodes: the telemetry leaf ordinal the dirty
	// set is marked by, and what assigns a host its rack (see scale.go).
	nodeByID map[string]*node.Node

	// scale selects the rack/room policy scope (see scale.go).
	scale bool

	// jobs holds one record per job ID, behind Instance.Job/Jobs and the
	// service layer's status endpoints. jobSeq numbers arrival IDs
	// ("jobNNNNN") and extSeq generated IDs for injected submissions
	// ("extNNNNN"); both skip IDs an explicit injection already took
	// (freshID).
	jobs   map[string]*job
	jobSeq int
	extSeq int

	// steps is the stable-sorted budget timeline, curBudget the budget in
	// force (see budget.go).
	steps     []BudgetStep
	curBudget units.Power

	horizon time.Duration

	// eng is the discrete-event engine. obs is the virtual-clock view of
	// cfg.Obs: it shares the registry, journal, spans, and stream but stamps
	// everything recorded during the run with the engine's virtual time,
	// which reads zero during setup — correct, setup happens at virtual
	// time zero.
	eng *engine.Scheduler
	obs *obs.Sink

	// active is the running set in start order, index for index the
	// manager's schedule (mgr.Jobs()): a replan's request index is also
	// the job's position here. readFaults collects the jobs whose probe
	// failed on a host during one reconcile.
	active     []*evJob
	readFaults []hostFault

	// Node-utilization accounting is a time integral, not a per-tick
	// census: busyIntegral accrues busyNodes over the span since busyAt
	// every time the active set is about to change.
	busyNodes    int
	busyAt       time.Duration
	busyIntegral float64

	// lastSample is the previous telemetry sample's virtual time: energy
	// integrates over the actual gap, which is Tick everywhere except the
	// final sample of a non-cadence-multiple horizon.
	lastSample time.Duration

	// spanCtx is the run's root span, parent of every replan span; round
	// numbers the replan rounds for span annotation.
	spanCtx obs.SpanContext
	round   int

	// hier is the scratch-pooled hierarchical allocator the rack/room
	// scope reuses round to round, and plan the request/topology scratch
	// beside it (see scale.go). The pipeline builds both sequentially
	// before fanning the rooms out.
	hier coordinator.HierAlloc
	plan planScratch

	// Every energy-state change marks its leaves dirty in root, so a
	// sample costs O(dirty) instead of O(nodes). dropStarts is the sorted
	// list of telemetry-dropout window starts; dropCursor marks their
	// leaves dirty from onSample, without scheduling engine events.
	dropStarts []dropStart
	dropCursor int

	// pool runs the replan pipeline's rooms, the sample's settlement and
	// its telemetry leaf reads on Parallelism workers (inline at 0 or 1),
	// and pipe is the pipeline's reusable scratch; see parallel.go.
	pool *workerPool
	pipe pipeScratch
}

// testMarkAllDirty marks every telemetry leaf dirty before each sample, so
// the dirty-set pass reads the whole hierarchy. Facility tests flip it to
// pin the event core's dirty marking against full passes end to end; it is
// never set outside tests.
var testMarkAllDirty bool

// testLeafChunk, when positive, replaces telemetry.LeafChunk as the number
// of dirty leaves one sample task reads, so small test pools split the
// dirty list across tasks. It is never set outside tests.
var testLeafChunk int

// testFreshProbeBuffers makes every probe measure into freshly zeroed
// storage instead of the job's reused buffer, the allocation pattern the
// reused buffers must match bit for bit. It is never set outside tests.
var testFreshProbeBuffers bool

// dropStart is one telemetry-dropout window start on the virtual timeline.
type dropStart struct {
	at  time.Duration
	ord int // leaf ordinal (position in cfg.Nodes)
}

// markDropoutStarts marks the leaves of every dropout window whose start
// has passed; the dirty-set pass then visits them and takes the hold
// branch exactly when a full pass would.
func (st *simState) markDropoutStarts(now time.Duration) {
	for st.dropCursor < len(st.dropStarts) && st.dropStarts[st.dropCursor].at <= now {
		st.root.MarkLeafDirty(st.dropStarts[st.dropCursor].ord)
		st.dropCursor++
	}
}

// markJobDirty marks every host of a job dirty for the next telemetry
// sample — called after any probe or steady-state credit changes host
// energy.
func (st *simState) markJobDirty(sj *rm.ScheduledJob) {
	for i := range sj.Job.Hosts {
		st.root.MarkLeafDirty(sj.Job.Hosts[i].Node.Slot())
	}
}

// markNodeDirty marks one node dirty — crashes and repairs toggle its
// energy readability between samples.
func (st *simState) markNodeDirty(n *node.Node) {
	st.root.MarkLeafDirty(n.Slot())
}

// setup builds the shared simulation state.
func setup(cfg Config) (*simState, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, err
	}
	st := &simState{
		cfg:      cfg,
		pol:      cfg.Policy,
		res:      &Result{},
		start:    time.Unix(0, 0).UTC(),
		nodeByID: map[string]*node.Node{},
		jobs:     map[string]*job{},
		steps:    cfg.sortedSteps(),
		horizon:  cfg.Duration,
		eng:      engine.New(),
	}
	st.curBudget = st.budgetAt(0)
	if st.pol == nil {
		st.pol = policy.StaticCaps{}
	}
	// Everything the run records goes through a virtual-clock view of the
	// caller's sink. The engine advances its clock before dispatching a
	// handler, so its Now is the correct virtual timestamp for everything
	// recorded inside handlers (and for the engine's own dispatch events).
	st.obs = cfg.Obs.WithVClock(st.eng.Now)
	st.eng.Obs = st.obs
	// Corruption applies to a clone so the caller's database survives the
	// run intact; policies see the damaged view and fall back.
	st.db = cfg.Faults.CorruptDB(cfg.DB, st.obs)
	st.rng = rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xBF58476D1CE4E5B9))
	st.mgr = rm.NewManager(cfg.Nodes)
	st.mgr.Obs = st.obs
	st.mgr.OnQuarantine = func(string, string) { st.res.Quarantined++ }
	st.mgr.OnRejoin = func(string) { st.res.Rejoined++ }
	st.mgr.BeforeSwap = st.settleJob
	sched, err := rm.NewScheduler(st.mgr, st.db, st.curBudget)
	if err != nil {
		return nil, err
	}
	st.sched = sched
	st.scale = cfg.scaleActive()
	root, err := telemetry.BuildHierarchy(cfg.Nodes, facilityPDUSize)
	if err != nil {
		return nil, err
	}
	st.root = root
	st.pool = &workerPool{workers: cfg.Parallelism}
	root.SetFanOut(st.pool.run, testLeafChunk)
	for _, n := range cfg.Nodes {
		st.nodeByID[n.ID] = n
	}
	cfg.Faults.Arm(cfg.Nodes, st.obs)
	root.SetFaultPlan(cfg.Faults, st.start, st.obs)
	// The event core marks leaves dirty on every energy-state change
	// (probes, steady-state credits, crashes, repairs), so the root
	// samples at O(dirty) cost, bit-identical to a full pass. Two fault
	// kinds change a leaf's reading without such an event:
	if cfg.Faults != nil {
		for _, in := range cfg.Faults.Injections {
			n, ok := st.nodeByID[in.Node]
			if !ok {
				continue
			}
			ord := n.Slot()
			switch in.Kind {
			case fault.MSRReadFault:
				// Energy reads consume the fault's countdown budget, so the
				// number of reads is observable until it fires: pin the leaf
				// dirty so it is read every sample, exactly as a full pass
				// would.
				root.PinLeafDirty(ord)
			case fault.TelemetryDropout:
				// Dropout windows open between samples without any engine
				// event of their own; a sorted cursor advanced in onSample
				// marks the leaf once its window can be active.
				st.dropStarts = append(st.dropStarts, dropStart{at: in.At, ord: ord})
			}
		}
		sort.Slice(st.dropStarts, func(i, j int) bool {
			a, b := st.dropStarts[i], st.dropStarts[j]
			return a.at < b.at || (a.at == b.at && a.ord < b.ord)
		})
	}
	for _, n := range cfg.Nodes {
		// Node-level events (limit writes, MSR writes, pins) recorded
		// during the run carry virtual timestamps too. Campaign pool
		// clones arrive without a sink, so this is also what turns their
		// node instrumentation on.
		if cfg.Obs != nil {
			n.SetObs(st.obs)
		}
	}
	root.Sample(st.start) // prime energy trackers
	return st, nil
}

// replanRound runs one replan round under its own span (parented to the
// run span, parenting the per-node cap-write spans the manager opens) and
// records its wall latency. An empty running set has nothing to replan.
func (st *simState) replanRound(round func() error) error {
	jobs := len(st.mgr.Jobs())
	if jobs == 0 {
		return nil
	}
	st.round++
	sp := st.obs.StartSpan(st.spanCtx, "facility", "replan").SetIter(st.round).SetValue(float64(jobs))
	var t0 time.Time
	if st.obs.Enabled() {
		t0 = time.Now()
	}
	st.mgr.SpanParent = sp.Ctx()
	err := round()
	st.mgr.SpanParent = obs.SpanContext{}
	sp.End()
	if !t0.IsZero() {
		st.obs.ReplanLatency(jobs, time.Since(t0).Seconds())
	}
	return err
}

// submitArrival draws one arrival from the config RNG and enqueues it at
// virtual offset now. The draw order (workload, size, length, next gap) is
// fixed, so the same seed produces the same job sequence. A submission
// whose demand exceeds the budget in force (rm.ErrBudgetInfeasible —
// possible under a dynamic timeline) is a degradation, not an error: the
// job is journaled as rejected and dropped, and since every draw precedes
// the enqueue a rejection never perturbs the arrival sequence behind it.
// It returns the gap to the next arrival.
func (st *simState) submitArrival(now time.Duration) (time.Duration, error) {
	spec := rm.JobSpec{
		ID:     st.freshID("job", &st.jobSeq),
		Config: st.cfg.Workloads[st.rng.IntN(len(st.cfg.Workloads))],
		Nodes:  st.cfg.JobSizes[st.rng.IntN(len(st.cfg.JobSizes))],
	}
	length := st.cfg.MinJobIterations + st.rng.IntN(st.cfg.MaxJobIterations-st.cfg.MinJobIterations+1)
	gap := expDuration(st.rng, st.cfg.MeanInterarrival)
	err := st.enqueue(spec, length, now)
	if errors.Is(err, rm.ErrBudgetInfeasible) && st.dynamicBudget() {
		// A rejected arrival's record keeps Iterations at zero: its drawn
		// length never entered the queue.
		st.reject(spec, 0, now)
		return gap, nil
	}
	return gap, err
}

// freshID advances *seq to the next ID of the form prefixNNNNN that no job
// record holds and returns it. An explicit injected ID may take either
// generated form, and a generated ID must not reuse it: the scheduler, the
// policy split and the job records are all keyed by ID. The search draws
// nothing from the arrival RNG.
func (st *simState) freshID(prefix string, seq *int) string {
	for {
		*seq++
		id := fmt.Sprintf("%s%05d", prefix, *seq)
		if _, taken := st.jobs[id]; !taken {
			return id
		}
	}
}

// finalize computes the run's aggregate statistics from its trace.
func (st *simState) finalize() {
	res := st.res
	res.QueuedAtEnd = len(st.sched.Queue())
	if res.Started > 0 {
		res.MeanQueueWait /= time.Duration(res.Started)
	}
	var sum float64
	for _, s := range res.Trace {
		sum += s.Power.Watts()
		if s.Power > res.PeakPower {
			res.PeakPower = s.Power
		}
	}
	if len(res.Trace) > 0 {
		res.MeanPower = units.Power(sum / float64(len(res.Trace)))
	}
}

// Run executes the simulation. Cancelling ctx stops the run at the next
// event boundary with ctx's error. Run is a thin loop over the re-entrant
// Instance — build, start, step straight to the horizon, close — and
// produces byte-identical Results to the pre-Instance monolith (pinned by
// the chunked-stepping equivalence tests in instance_test.go).
func Run(ctx context.Context, cfg Config) (*Result, error) {
	in, err := NewInstance(cfg)
	if err != nil {
		return nil, err
	}
	// release (not Close) on error paths: end the root span and hand node
	// instrumentation back without finalizing a half-run Result.
	defer in.release()
	if err := in.Start(); err != nil {
		return nil, err
	}
	if err := in.Step(ctx, in.Horizon()); err != nil {
		return nil, err
	}
	return in.Close()
}

// expDuration samples an exponential inter-arrival gap. The result is
// clamped to at least 1ns: a mean so small that the sampled gap truncates
// to zero would otherwise stall the event engine's arrival chain at a
// single instant forever.
func expDuration(rng *rand.Rand, mean time.Duration) time.Duration {
	u := rng.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	d := time.Duration(-math.Log(u) * float64(mean))
	if d < time.Nanosecond {
		d = time.Nanosecond
	}
	return d
}
