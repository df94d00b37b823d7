package rm

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"powerstack/internal/charz"
	"powerstack/internal/units"
)

// The paper's motivation (Section II) is the EEHPC-WG survey of energy- and
// power-aware job scheduling: a resource manager must admit jobs against
// *two* budgets, nodes and watts. This file adds that scheduler: a FCFS
// queue with EASY-style backfill where a job is started only when enough
// free nodes exist AND its characterized power demand fits the remaining
// system power budget.

// QueuedJob is a submission waiting for nodes and power.
type QueuedJob struct {
	Spec JobSpec
	// Demand is the job's admission power estimate (characterized
	// uncapped draw by default — the conservative choice).
	Demand units.Power
	// SubmitOrder preserves FCFS fairness.
	SubmitOrder int
	// EstimatedRuntime supports backfill decisions.
	EstimatedRuntime time.Duration
}

// Scheduler admits queued jobs under a node and power budget.
type Scheduler struct {
	mgr    *Manager
	db     *charz.DB
	budget units.Power

	queue   []*QueuedJob
	started []*ScheduledJob
	// committed is the admitted jobs' total power demand; demands
	// remembers each started job's admission estimate so completion
	// releases exactly what admission committed, even when the
	// characterization entry was corrupt and a fallback estimate was used.
	committed units.Power
	demands   map[*ScheduledJob]units.Power
	// quotas partitions the budget per tenant: a tenant with a quota may
	// never hold more committed power than it, no matter how idle the
	// rest of the system is. Tenants without a quota (and the empty
	// default tenant) are bounded only by the system budget.
	// tenantCommitted mirrors committed per tenant.
	quotas          map[string]units.Power
	tenantCommitted map[string]units.Power
	nextOrder       int
	// totalNodes is the managed pool size at construction, the basis of
	// the uniform fallback demand estimate for corrupt entries.
	totalNodes int
	// Backfill allows later queued jobs to start ahead of a blocked head
	// job when they fit, EASY-style. The head job's start is never
	// delayed by backfilled jobs in this model because power and nodes
	// are released only at job completion.
	Backfill bool
}

// NewScheduler builds a power-aware scheduler over the manager's node pool.
func NewScheduler(mgr *Manager, db *charz.DB, budget units.Power) (*Scheduler, error) {
	if mgr == nil {
		return nil, errors.New("rm: scheduler needs a manager")
	}
	if db == nil {
		return nil, errors.New("rm: scheduler needs a characterization database")
	}
	if budget <= 0 {
		return nil, errors.New("rm: scheduler budget must be positive")
	}
	return &Scheduler{
		mgr: mgr, db: db, budget: budget, Backfill: true,
		demands:         map[*ScheduledJob]units.Power{},
		quotas:          map[string]units.Power{},
		tenantCommitted: map[string]units.Power{},
		totalNodes:      mgr.FreeNodes() + mgr.nDrained,
	}, nil
}

// SetTenantQuota installs (or, with quota zero, removes) a tenant's power
// quota partition. Already committed power is never clawed back by a quota
// change: a lowered quota only gates future admissions, mirroring
// SetBudget's semantics for the system budget.
func (s *Scheduler) SetTenantQuota(tenant string, quota units.Power) error {
	if tenant == "" {
		return errors.New("rm: tenant quota needs a tenant name")
	}
	if quota < 0 {
		return fmt.Errorf("rm: tenant %s quota must not be negative", tenant)
	}
	if quota == 0 {
		delete(s.quotas, tenant)
		return nil
	}
	s.quotas[tenant] = quota
	return nil
}

// TenantQuota returns a tenant's quota partition (zero when the tenant is
// unpartitioned).
func (s *Scheduler) TenantQuota(tenant string) units.Power { return s.quotas[tenant] }

// TenantCommitted returns a tenant's currently committed power demand.
func (s *Scheduler) TenantCommitted(tenant string) units.Power {
	return s.tenantCommitted[tenant]
}

// Tenants returns every tenant with a quota, sorted by name.
func (s *Scheduler) Tenants() []string {
	out := make([]string, 0, len(s.quotas))
	for t := range s.quotas {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Enqueue validates a submission and places it in the queue. The power
// demand is taken from the characterization: nodes x the workload's mean
// uncapped host power. A present-but-corrupt entry degrades to the uniform
// estimate of budget/totalNodes per host, so a damaged database record
// does not make the job unschedulable; a configuration missing entirely
// still fails with charz.ErrNotCharacterized (admission needs *some*
// estimate, and none exists). A job whose demand exceeds the whole system
// budget — the budget currently in force, under a dynamic timeline — fails
// with ErrBudgetInfeasible: it could not start while that budget holds.
// Facility callers treat this as a degradation (journal and drop the
// submission), not a crash.
func (s *Scheduler) Enqueue(spec JobSpec) (*QueuedJob, error) {
	if spec.Nodes <= 0 {
		return nil, fmt.Errorf("rm: job %s requests %d nodes", spec.ID, spec.Nodes)
	}
	entry, err := s.db.MustGet(spec.Config)
	if err != nil {
		return nil, err
	}
	demand := entry.MonitorHostPower * units.Power(spec.Nodes)
	if !entry.Valid() && s.totalNodes > 0 {
		demand = s.budget / units.Power(s.totalNodes) * units.Power(spec.Nodes)
	}
	if demand > s.budget {
		return nil, fmt.Errorf("%w: job %s demands %v against budget %v",
			ErrBudgetInfeasible, spec.ID, demand, s.budget)
	}
	if quota, ok := s.quotas[spec.Tenant]; ok && demand > quota {
		return nil, fmt.Errorf("%w: job %s demands %v against tenant %s quota %v",
			ErrTenantQuotaExceeded, spec.ID, demand, spec.Tenant, quota)
	}
	qj := &QueuedJob{
		Spec:        spec,
		Demand:      demand,
		SubmitOrder: s.nextOrder,
	}
	qj.EstimatedRuntime = entry.MonitorIterTime * 100 // the paper's 100-iteration runs
	s.nextOrder++
	s.queue = append(s.queue, qj)
	return qj, nil
}

// Queue returns the jobs still waiting, in order.
func (s *Scheduler) Queue() []*QueuedJob { return s.queue }

// SetBudget retargets the admission budget mid-run — the facility's
// dynamic budget timeline calls this at every change. Admission (fits) and
// the Enqueue infeasibility floor track the new value immediately; already
// started jobs keep their commitments, so after a downward step the
// committed power may exceed the budget until completions (or the caller's
// emergency response — preemption or kills) bring it back under.
func (s *Scheduler) SetBudget(b units.Power) error {
	if b <= 0 {
		return errors.New("rm: scheduler budget must be positive")
	}
	s.budget = b
	return nil
}

// CommittedPower returns the admitted jobs' total power demand.
func (s *Scheduler) CommittedPower() units.Power { return s.committed }

// fits reports whether the job can start now: enough free nodes, headroom
// under the system budget, and — when its tenant is quota-partitioned —
// headroom under the tenant quota.
func (s *Scheduler) fits(qj *QueuedJob) bool {
	if qj.Spec.Nodes > s.mgr.FreeNodes() || s.committed+qj.Demand > s.budget {
		return false
	}
	if quota, ok := s.quotas[qj.Spec.Tenant]; ok {
		return s.tenantCommitted[qj.Spec.Tenant]+qj.Demand <= quota
	}
	return true
}

// admit starts a queued job.
func (s *Scheduler) admit(qj *QueuedJob, seed uint64) error {
	sj, err := s.mgr.Submit(qj.Spec, seed)
	if err != nil {
		return err
	}
	s.committed += qj.Demand
	s.tenantCommitted[qj.Spec.Tenant] += qj.Demand
	s.demands[sj] = qj.Demand
	s.started = append(s.started, sj)
	return nil
}

// Dispatch admits as many queued jobs as fit, FCFS with optional EASY
// backfill: if the head job cannot start, later jobs that fit may start
// ahead of it. Returns the jobs started this pass.
func (s *Scheduler) Dispatch(seed uint64) ([]*ScheduledJob, error) {
	var startedNow []*ScheduledJob
	var remaining []*QueuedJob
	blockedHead := false
	for i, qj := range s.queue {
		if blockedHead && !s.Backfill {
			remaining = append(remaining, s.queue[i:]...)
			break
		}
		if !s.fits(qj) {
			blockedHead = true
			remaining = append(remaining, qj)
			continue
		}
		if err := s.admit(qj, seed+uint64(qj.SubmitOrder)); err != nil {
			return nil, err
		}
		startedNow = append(startedNow, s.started[len(s.started)-1])
	}
	s.queue = remaining
	return startedNow, nil
}

// CanDispatch reports whether Dispatch would start at least one queued job
// now. It walks the queue as Dispatch does — FCFS, past a blocked head only
// under Backfill — and admits nothing.
func (s *Scheduler) CanDispatch() bool {
	for _, qj := range s.queue {
		if s.fits(qj) {
			return true
		}
		if !s.Backfill {
			return false
		}
	}
	return false
}

// remove drops a started job from the started set and releases its power
// commitment (system-wide and per-tenant), returning the released demand.
// It is the shared first half of Complete, Requeue, and Abort.
func (s *Scheduler) remove(sj *ScheduledJob) (units.Power, error) {
	idx := -1
	for i, cand := range s.started {
		if cand == sj {
			idx = i
			break
		}
	}
	if idx < 0 {
		return 0, fmt.Errorf("rm: job %s is not running", sj.Spec.ID)
	}
	demand := s.demands[sj]
	s.committed -= demand
	delete(s.demands, sj)
	if s.committed < 0 {
		s.committed = 0
	}
	if tc := s.tenantCommitted[sj.Spec.Tenant] - demand; tc > 0 {
		s.tenantCommitted[sj.Spec.Tenant] = tc
	} else {
		delete(s.tenantCommitted, sj.Spec.Tenant)
	}
	s.started = append(s.started[:idx], s.started[idx+1:]...)
	return demand, nil
}

// Complete releases a started job's nodes and power commitment, returning
// an error if the job is unknown.
func (s *Scheduler) Complete(sj *ScheduledJob) error {
	if _, err := s.remove(sj); err != nil {
		return err
	}
	return s.mgr.release(sj)
}

// Requeue aborts a started job — typically because a crash drained one of
// its hosts out from under it — releases its surviving nodes and power
// commitment, and places it back at the head of the queue so it restarts
// as soon as capacity allows. The decision is journaled as a JobRequeued
// event.
func (s *Scheduler) Requeue(sj *ScheduledJob) error {
	demand, err := s.remove(sj)
	if err != nil {
		return err
	}
	if err := s.mgr.release(sj); err != nil {
		return err
	}
	qj := &QueuedJob{Spec: sj.Spec, Demand: demand, SubmitOrder: s.nextOrder}
	s.nextOrder++
	s.queue = append([]*QueuedJob{qj}, s.queue...)
	s.mgr.Obs.JobRequeued(sj.Spec.ID, len(s.queue))
	return nil
}

// Abort releases a started job's nodes and power commitment without
// requeueing it — the kill response to a budget emergency. Unlike Requeue
// the job never returns: its progress is discarded and it will not count as
// completed. The caller journals the decision (JobKilled).
func (s *Scheduler) Abort(sj *ScheduledJob) error {
	if _, err := s.remove(sj); err != nil {
		return err
	}
	return s.mgr.release(sj)
}
