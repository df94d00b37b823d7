package facility

// The re-entrant facility instance. facility.Run is batch-shaped: build a
// world, run it to the horizon, tear it down. powerstackd and the campaign
// engine need the same event core as a long-lived object — advanced in
// increments paced to the wall clock, accepting external job submissions
// at virtual times, swapping budgets and policies without restart, and
// observable mid-flight. Instance is that object: Run is now a thin loop
// over it (NewInstance → Start → Step(horizon) → Close) and produces
// byte-identical Results to the former monolith — the equivalence the
// chunked-stepping tests pin. The event core advances to exact virtual
// instants, so Step(until) stops on the nanosecond.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"powerstack/internal/kernel"
	"powerstack/internal/obs"
	"powerstack/internal/policy"
	"powerstack/internal/rm"
	"powerstack/internal/units"
)

// Instance lifecycle errors, matchable with errors.Is.
var (
	// ErrInstanceNotStarted reports an operation that needs Start first.
	ErrInstanceNotStarted = errors.New("facility: instance not started")
	// ErrInstancePaused reports a Step on a paused instance.
	ErrInstancePaused = errors.New("facility: instance paused")
	// ErrInstanceClosed reports an operation on a closed instance.
	ErrInstanceClosed = errors.New("facility: instance closed")
	// ErrDuplicateJobID reports an injected submission reusing an ID the
	// instance has already seen.
	ErrDuplicateJobID = errors.New("facility: duplicate job id")
	// ErrInvalidSubmission reports an injected submission with a
	// non-positive node count or length.
	ErrInvalidSubmission = errors.New("facility: invalid submission")
)

// InstanceState is an instance's lifecycle position.
type InstanceState string

// The instance lifecycle: New → (Start) → Running ⇄ Paused → (Close) →
// Closed.
const (
	InstanceNew     InstanceState = "new"
	InstanceRunning InstanceState = "running"
	InstancePaused  InstanceState = "paused"
	InstanceClosed  InstanceState = "closed"
)

// Submission is one externally injected job — the service-mode counterpart
// of a Poisson arrival. Unlike arrivals it names its tenant and carries an
// explicit length, and it never consumes the arrival RNG, so injections
// into a run never perturb the synthetic traffic behind them.
type Submission struct {
	// ID names the job; empty generates "extNNNNN". IDs are unique per
	// instance across arrivals and injections.
	ID string
	// Tenant is the submitting tenant for per-tenant admission control
	// (see Instance.SetTenantQuota); empty is the default tenant.
	Tenant string
	// Workload must be characterized in the instance's database.
	Workload kernel.Config
	// Nodes is the host count requested.
	Nodes int
	// Iterations is the job length.
	Iterations int
}

// JobState is a tracked job's lifecycle position.
type JobState string

// The job states an instance reports.
const (
	// JobScheduled is a deferred injection awaiting its virtual time.
	JobScheduled JobState = "scheduled"
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobCompleted JobState = "completed"
	JobKilled    JobState = "killed"
	JobRejected  JobState = "rejected"
)

// JobInfo is the per-job lifecycle record an instance keeps for status
// queries. Times are virtual offsets from run start.
type JobInfo struct {
	ID     string
	Tenant string
	State  JobState
	// Nodes and Iterations echo the submission; Remaining is the
	// iterations still to run (refreshed from the engine for running
	// jobs at query time).
	Nodes, Iterations, Remaining int
	// SubmittedAt, StartedAt, and FinishedAt are virtual offsets;
	// StartedAt is the first start (a requeued job keeps it).
	SubmittedAt, StartedAt, FinishedAt time.Duration
	// Preemptions, Requeues, and Resumes count budget-emergency
	// preemptions, crash requeues, and checkpoint restores.
	Preemptions, Requeues, Resumes int
}

// job is the facility's one record per job ID: the lifecycle view status
// queries return, plus the last recorded checkpoint and, while the job
// runs, its event-core state. A job's length is its Iterations.
type job struct {
	JobInfo
	// checkpoint is the last checkpointed iteration, 0 when none (see
	// budget.go).
	checkpoint int
	// run is the running job, nil while the job is not running.
	run *evJob
}

// info returns the record's status view at virtual time now: a running
// job's Remaining is read analytically, crediting nothing.
func (rec *job) info(now time.Duration) JobInfo {
	out := rec.JobInfo
	if r := rec.run; r != nil {
		out.Remaining = r.remaining - r.due(now)
	}
	return out
}

// RunningJob is one active job in a Snapshot.
type RunningJob struct {
	ID        string
	Tenant    string
	Nodes     int
	Remaining int
	// StartedAt is the virtual offset of the (most recent) start.
	StartedAt time.Duration
}

// TenantSnapshot is one quota-partitioned tenant's admission state.
type TenantSnapshot struct {
	Name      string
	Quota     units.Power
	Committed units.Power
}

// Snapshot is a point-in-time view of a live instance — everything the
// service layer's status endpoints report without finalizing the run.
type Snapshot struct {
	State   InstanceState
	Now     time.Duration
	Horizon time.Duration
	// Budget is the budget in force; CommittedPower the admitted jobs'
	// total demand against it.
	Budget         units.Power
	CommittedPower units.Power
	FreeNodes      int
	QueuedJobs     int
	Running        []RunningJob
	Tenants        []TenantSnapshot
	// Counters mirror the Result fields of the run so far.
	Submitted, Started, Completed        int
	Rejected, Preempted, Killed, Resumed int
	Requeued, Quarantined, Rejoined      int
	BudgetChanges, BudgetViolationTicks  int
	EventsDispatched                     int
	// LastPower and LastSampleAt are the most recent telemetry sample.
	LastPower    units.Power
	LastSampleAt time.Duration
}

// Instance is a re-entrant facility simulation: the same event core behind
// batch Run, campaigns, and the powerstackd service. Not safe for
// concurrent use — callers serialize access (the service layer holds a
// mutex per hosted instance).
type Instance struct {
	st       *simState
	state    InstanceState
	sp       *obs.Span
	released bool
}

// NewInstance validates cfg and builds a ready-to-start instance.
func NewInstance(cfg Config) (*Instance, error) {
	st, err := setup(cfg)
	if err != nil {
		return nil, err
	}
	return &Instance{st: st, state: InstanceNew}, nil
}

// Start opens the run's root span and primes the engine. It may be called
// once.
func (in *Instance) Start() error {
	switch in.state {
	case InstanceNew:
	case InstanceClosed:
		return ErrInstanceClosed
	default:
		return fmt.Errorf("facility: instance already started (%s)", in.state)
	}
	sp := in.st.obs.StartSpan(in.st.cfg.SpanParent, "facility", "facility_run").
		SetIter(len(in.st.cfg.Nodes)).SetValue(in.st.cfg.SystemBudget.Watts())
	in.sp = sp
	in.st.spanCtx = sp.Ctx()
	in.st.prime()
	in.state = InstanceRunning
	return nil
}

// Step advances virtual time toward until (clamped to the horizon),
// dispatching every due event at its exact virtual time. Cancelling ctx
// stops at the next event boundary with ctx's error; the instance stays
// steppable. A paused instance refuses with ErrInstancePaused.
func (in *Instance) Step(ctx context.Context, until time.Duration) error {
	switch in.state {
	case InstanceRunning:
	case InstancePaused:
		return ErrInstancePaused
	case InstanceClosed:
		return ErrInstanceClosed
	default:
		return ErrInstanceNotStarted
	}
	if until > in.st.horizon {
		until = in.st.horizon
	}
	return in.st.eng.RunUntil(ctx, until)
}

// Pause freezes the instance: Step refuses until Resume. Injections and
// swaps remain legal while paused — they take effect at the current
// virtual instant.
func (in *Instance) Pause() error {
	switch in.state {
	case InstanceRunning:
		in.state = InstancePaused
		return nil
	case InstancePaused:
		return nil
	case InstanceClosed:
		return ErrInstanceClosed
	default:
		return ErrInstanceNotStarted
	}
}

// Resume lifts a Pause.
func (in *Instance) Resume() error {
	switch in.state {
	case InstancePaused:
		in.state = InstanceRunning
		return nil
	case InstanceRunning:
		return nil
	case InstanceClosed:
		return ErrInstanceClosed
	default:
		return ErrInstanceNotStarted
	}
}

// Now returns the instance's virtual time.
func (in *Instance) Now() time.Duration { return in.st.eng.Now() }

// Horizon returns the configured end of simulated time.
func (in *Instance) Horizon() time.Duration { return in.st.horizon }

// Nodes returns the facility's node count.
func (in *Instance) Nodes() int { return len(in.st.cfg.Nodes) }

// Done reports whether the horizon has been reached.
func (in *Instance) Done() bool { return in.st.eng.Now() >= in.st.horizon }

// State returns the lifecycle state.
func (in *Instance) State() InstanceState { return in.state }

// Inject submits an external job at virtual time at. An at at or before
// the current virtual time (pass 0 for "now") enqueues immediately and
// surfaces admission errors synchronously: rm.ErrBudgetInfeasible,
// rm.ErrTenantQuotaExceeded, rm.ErrInsufficientNodes,
// charz.ErrNotCharacterized, ErrDuplicateJobID, or ErrInvalidSubmission.
// A future at schedules the submission on the virtual timeline; admission
// errors there degrade to journaled rejections, exactly like infeasible
// Poisson arrivals under a dynamic budget. Returns the job ID.
func (in *Instance) Inject(at time.Duration, sub Submission) (string, error) {
	switch in.state {
	case InstanceRunning, InstancePaused:
	case InstanceClosed:
		return "", ErrInstanceClosed
	default:
		return "", ErrInstanceNotStarted
	}
	if err := in.st.validateSubmission(sub); err != nil {
		return "", err
	}
	st := in.st
	if sub.ID == "" {
		sub.ID = st.freshID("ext", &st.extSeq)
	}
	spec := rm.JobSpec{ID: sub.ID, Config: sub.Workload, Nodes: sub.Nodes, Tenant: sub.Tenant}
	if now := st.eng.Now(); at <= now {
		if err := st.submitInjected(spec, sub.Iterations, now); err != nil {
			return spec.ID, err
		}
		return spec.ID, st.reconcile(now, false, false)
	}
	// Deferred injections are visible immediately as scheduled; the record
	// is replaced when the submission fires (queued or rejected). Admission
	// errors at fire time degrade to journaled rejections: the submitter is
	// long gone.
	st.jobs[spec.ID] = &job{JobInfo: JobInfo{
		ID: spec.ID, Tenant: sub.Tenant, State: JobScheduled,
		Nodes: sub.Nodes, Iterations: sub.Iterations, Remaining: sub.Iterations,
		SubmittedAt: at,
	}}
	st.eng.Schedule(at, "inject", func(now time.Duration) error {
		if err := st.submitInjected(spec, sub.Iterations, now); err != nil {
			st.reject(spec, sub.Iterations, now)
			return nil
		}
		return st.reconcile(now, false, false)
	})
	return spec.ID, nil
}

// ScheduleBudget appends a live step to the budget timeline: from at
// onward (clamped to the current virtual time; pass 0 for "now") the
// scheduled facility budget is b. A live step composes with the configured
// timeline exactly as a BudgetStep declared up front would — including the
// emergency response when a downward step strands committed power.
func (in *Instance) ScheduleBudget(at time.Duration, b units.Power) error {
	switch in.state {
	case InstanceRunning, InstancePaused:
	case InstanceClosed:
		return ErrInstanceClosed
	default:
		return ErrInstanceNotStarted
	}
	if b <= 0 {
		return errors.New("facility: budget must be positive")
	}
	if now := in.st.eng.Now(); at < now {
		at = now
	}
	in.st.steps = append(in.st.steps, BudgetStep{At: at, Budget: b})
	// Stable sort keeps declaration order at equal instants, so the live
	// step (appended last) wins ties — the timeline's usual rule.
	sort.SliceStable(in.st.steps, func(i, j int) bool { return in.st.steps[i].At < in.st.steps[j].At })
	in.st.eng.Schedule(at, "budget", in.st.onBudget)
	return nil
}

// SetPolicy swaps the power policy live (nil selects StaticCaps) and
// replans the running set under it.
func (in *Instance) SetPolicy(p policy.Policy) error {
	switch in.state {
	case InstanceRunning, InstancePaused:
	case InstanceClosed:
		return ErrInstanceClosed
	default:
		return ErrInstanceNotStarted
	}
	if p == nil {
		p = policy.StaticCaps{}
	}
	in.st.pol = p
	// Replan the running set under the new policy now, re-aiming
	// completions at the moved operating points.
	return in.st.reconcile(in.Now(), true, false)
}

// Policy returns the power policy in force.
func (in *Instance) Policy() policy.Policy { return in.st.pol }

// SetTenantQuota installs (or, with quota zero, removes) a tenant's power
// quota partition for admission control. On a started instance the change
// is an admission event: a job it unblocks starts at once (the running
// set's caps are replanned only if one does).
func (in *Instance) SetTenantQuota(tenant string, quota units.Power) error {
	if in.state == InstanceClosed {
		return ErrInstanceClosed
	}
	if err := in.st.sched.SetTenantQuota(tenant, quota); err != nil || in.state == InstanceNew {
		return err
	}
	return in.st.reconcile(in.Now(), false, false)
}

// Job returns a tracked job's lifecycle record.
func (in *Instance) Job(id string) (JobInfo, bool) {
	rec, ok := in.st.jobs[id]
	if !ok {
		return JobInfo{}, false
	}
	return rec.info(in.Now()), true
}

// Jobs returns every tracked job, ordered by submission time then ID.
func (in *Instance) Jobs() []JobInfo {
	now := in.Now()
	out := make([]JobInfo, 0, len(in.st.jobs))
	for _, rec := range in.st.jobs {
		out = append(out, rec.info(now))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SubmittedAt != out[j].SubmittedAt {
			return out[i].SubmittedAt < out[j].SubmittedAt
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Snapshot captures the instance's live state without finalizing anything.
func (in *Instance) Snapshot() Snapshot {
	st, res := in.st, in.st.res
	sn := Snapshot{
		State:                in.state,
		Now:                  in.st.eng.Now(),
		Horizon:              st.horizon,
		Budget:               st.curBudget,
		CommittedPower:       st.sched.CommittedPower(),
		FreeNodes:            st.mgr.FreeNodes(),
		QueuedJobs:           len(st.sched.Queue()),
		Running:              st.running(),
		Submitted:            res.Submitted,
		Started:              res.Started,
		Completed:            res.Completed,
		Rejected:             res.Rejected,
		Preempted:            res.Preempted,
		Killed:               res.Killed,
		Resumed:              res.Resumed,
		Requeued:             res.Requeued,
		Quarantined:          res.Quarantined,
		Rejoined:             res.Rejoined,
		BudgetChanges:        res.BudgetChanges,
		BudgetViolationTicks: res.BudgetViolationTicks,
		EventsDispatched:     res.EventsDispatched,
	}
	for _, t := range st.sched.Tenants() {
		sn.Tenants = append(sn.Tenants, TenantSnapshot{
			Name:      t,
			Quota:     st.sched.TenantQuota(t),
			Committed: st.sched.TenantCommitted(t),
		})
	}
	if n := len(res.Trace); n > 0 {
		sn.LastPower = res.Trace[n-1].Power
		sn.LastSampleAt = res.Trace[n-1].Time.Sub(st.start)
	}
	return sn
}

// Close settles the run's integrals, finalizes the Result, ends the root
// span, and hands node instrumentation back to the caller's sink. The
// instance is unusable afterwards; Close is idempotent in effect but
// returns ErrInstanceClosed on repeats.
func (in *Instance) Close() (*Result, error) {
	if in.state == InstanceClosed {
		return nil, ErrInstanceClosed
	}
	started := in.state != InstanceNew
	in.state = InstanceClosed
	if started {
		in.st.settle()
		in.st.finalize()
	}
	in.release()
	return in.st.res, nil
}

// release ends the root span and hands node sinks back to the caller —
// the cleanup Run guarantees even on error paths. Idempotent.
func (in *Instance) release() {
	if in.released {
		return
	}
	in.released = true
	in.sp.End()
	if in.st.cfg.Obs != nil {
		for _, n := range in.st.cfg.Nodes {
			n.SetObs(in.st.cfg.Obs)
		}
	}
}

// --- simState: injected submissions and job-lifecycle tracking ---

// validateSubmission front-checks an injected submission against the
// instance's world: shape, node feasibility, characterization, and ID
// uniqueness (when an explicit ID is given).
func (st *simState) validateSubmission(sub Submission) error {
	if sub.Nodes <= 0 {
		return fmt.Errorf("%w: requests %d nodes", ErrInvalidSubmission, sub.Nodes)
	}
	if sub.Nodes > len(st.cfg.Nodes) {
		return fmt.Errorf("%w: submission needs %d nodes, the facility has %d",
			rm.ErrInsufficientNodes, sub.Nodes, len(st.cfg.Nodes))
	}
	if sub.Iterations <= 0 {
		return fmt.Errorf("%w: length %d must be positive", ErrInvalidSubmission, sub.Iterations)
	}
	if _, err := st.db.MustGet(sub.Workload); err != nil {
		return err
	}
	if sub.ID != "" {
		if _, dup := st.jobs[sub.ID]; dup {
			return fmt.Errorf("%w: %s", ErrDuplicateJobID, sub.ID)
		}
	}
	return nil
}

// submitInjected enqueues an injection at virtual offset now. A scheduled
// record under its ID is this very injection firing; any other record is a
// genuine collision.
func (st *simState) submitInjected(spec rm.JobSpec, length int, now time.Duration) error {
	if rec, dup := st.jobs[spec.ID]; dup && rec.State != JobScheduled {
		return fmt.Errorf("%w: %s", ErrDuplicateJobID, spec.ID)
	}
	return st.enqueue(spec, length, now)
}

// enqueue is the one path by which arrivals and injections enter the queue:
// it submits spec with the given length at virtual offset now and records
// the job queued. Injections never touch the arrival RNG, so they do not
// perturb the Poisson sequence behind them.
func (st *simState) enqueue(spec rm.JobSpec, length int, now time.Duration) error {
	if _, err := st.sched.Enqueue(spec); err != nil {
		return err
	}
	st.res.Submitted++
	st.jobs[spec.ID] = &job{JobInfo: JobInfo{
		ID: spec.ID, Tenant: spec.Tenant, State: JobQueued,
		Nodes: spec.Nodes, Iterations: length, Remaining: length,
		SubmittedAt: now,
	}}
	return nil
}

// reject journals a submission refused at enqueue and records it rejected,
// reporting iterations as its length: an arrival infeasible under a
// dynamic budget, or a deferred injection whose admission failed when it
// fired.
func (st *simState) reject(spec rm.JobSpec, iterations int, now time.Duration) {
	st.res.Rejected++
	var demand units.Power
	if entry, err := st.db.MustGet(spec.Config); err == nil {
		demand = entry.MonitorHostPower * units.Power(spec.Nodes)
	}
	st.obs.JobRejected(spec.ID, demand.Watts(), st.curBudget.Watts())
	st.jobs[spec.ID] = &job{JobInfo: JobInfo{
		ID: spec.ID, Tenant: spec.Tenant, State: JobRejected,
		Nodes: spec.Nodes, Iterations: iterations,
		SubmittedAt: now, FinishedAt: now,
	}}
}
