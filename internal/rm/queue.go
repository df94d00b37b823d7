package rm

import (
	"errors"
	"fmt"
	"maps"
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

	// queue holds the waiting jobs; the running set is mgr.Jobs().
	queue []*QueuedJob
	// committed is the admitted jobs' total power demand. Each started
	// job carries its own admission estimate (ScheduledJob.demand), so
	// completion releases exactly what admission committed, even when the
	// characterization entry was corrupt and a fallback estimate was used.
	committed units.Power
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
		mgr: mgr, db: db, budget: budget,
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

// admit starts a queued job and commits its demand.
func (s *Scheduler) admit(qj *QueuedJob, seed uint64) (*ScheduledJob, error) {
	sj, err := s.mgr.Submit(qj.Spec, seed)
	if err != nil {
		return nil, err
	}
	sj.demand = qj.Demand
	s.committed += qj.Demand
	s.tenantCommitted[qj.Spec.Tenant] += qj.Demand
	return sj, nil
}

// Dispatch admits as many queued jobs as fit, FCFS with EASY backfill: if
// the head job cannot start, later jobs that fit may start ahead of it.
// The head job's start is never delayed by backfilled jobs in this model
// because power and nodes are released only at job completion. Returns
// the jobs started this pass.
func (s *Scheduler) Dispatch(seed uint64) ([]*ScheduledJob, error) {
	var startedNow []*ScheduledJob
	var remaining []*QueuedJob
	for _, qj := range s.queue {
		if !s.fits(qj) {
			remaining = append(remaining, qj)
			continue
		}
		sj, err := s.admit(qj, seed+uint64(qj.SubmitOrder))
		if err != nil {
			return nil, err
		}
		startedNow = append(startedNow, sj)
	}
	s.queue = remaining
	return startedNow, nil
}

// CanDispatch reports whether Dispatch would start at least one queued job
// now, admitting nothing.
func (s *Scheduler) CanDispatch() bool {
	for _, qj := range s.queue {
		if s.fits(qj) {
			return true
		}
	}
	return false
}

// remove takes a started job off the manager's schedule (its nodes return
// to the free pool) and releases its power commitment, system-wide and
// per-tenant, returning the released demand. It is the shared first half
// of Complete, Requeue, and Abort, and fails for a job not running.
func (s *Scheduler) remove(sj *ScheduledJob) (units.Power, error) {
	if err := s.mgr.release(sj); err != nil {
		return 0, err
	}
	demand := sj.demand
	sj.demand = 0
	s.committed -= demand
	if s.committed < 0 {
		s.committed = 0
	}
	if tc := s.tenantCommitted[sj.Spec.Tenant] - demand; tc > 0 {
		s.tenantCommitted[sj.Spec.Tenant] = tc
	} else {
		delete(s.tenantCommitted, sj.Spec.Tenant)
	}
	return demand, nil
}

// Complete releases a started job's nodes and power commitment, returning
// an error if the job is unknown.
func (s *Scheduler) Complete(sj *ScheduledJob) error {
	_, err := s.remove(sj)
	return err
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
	_, err := s.remove(sj)
	return err
}

// Clone returns an independent copy of the scheduler — queue, budget,
// commitments and tenant quotas — admitting onto mgr, a Clone of its
// manager.
func (s *Scheduler) Clone(mgr *Manager) *Scheduler {
	c := *s
	c.mgr = mgr
	c.queue = make([]*QueuedJob, len(s.queue))
	for i, qj := range s.queue {
		cq := *qj
		c.queue[i] = &cq
	}
	c.quotas = maps.Clone(s.quotas)
	c.tenantCommitted = maps.Clone(s.tenantCommitted)
	return &c
}
