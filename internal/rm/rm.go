// Package rm is the resource-manager half of the stack (the SLURM role in
// the paper): it owns the node pool, schedules jobs onto nodes, asks a
// Section III policy for a system-wide power allocation, programs the
// resulting per-host caps through the GEOPM runtime; callers run the jobs.
//
// The paper emulates the execution-time feedback loop between resource
// manager and job runtime by pre-characterizing workloads; accordingly the
// manager consumes a charz.DB and applies static per-host caps for a run.
package rm

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"powerstack/internal/bsp"
	"powerstack/internal/charz"
	"powerstack/internal/kernel"
	"powerstack/internal/node"
	"powerstack/internal/obs"
	"powerstack/internal/policy"
	"powerstack/internal/rapl"
	"powerstack/internal/units"
)

// Sentinel errors callers match with errors.Is. They are part of the
// resource manager's API: every wrapped variant carries the job and node
// context in its message while staying matchable.
var (
	// ErrInsufficientNodes reports a submission larger than the managed
	// pool could ever satisfy, quarantine aside.
	ErrInsufficientNodes = errors.New("rm: insufficient nodes")
	// ErrNodeQuarantined reports a submission that free nodes cannot
	// satisfy only because nodes sit in the quarantine drain set — the
	// caller may retry after repairs rejoin them.
	ErrNodeQuarantined = errors.New("rm: nodes quarantined")
	// ErrBudgetInfeasible reports a job whose characterized power demand
	// exceeds the scheduler's whole system budget: it can never start.
	ErrBudgetInfeasible = errors.New("rm: power demand exceeds system budget")
	// ErrTenantQuotaExceeded reports a submission whose power demand
	// exceeds its tenant's whole quota partition: it can never start
	// while that quota holds, regardless of how idle the rest of the
	// system is.
	ErrTenantQuotaExceeded = errors.New("rm: power demand exceeds tenant quota")
)

// JobSpec is a job submission.
type JobSpec struct {
	ID     string
	Config kernel.Config
	// Nodes is the host count requested.
	Nodes int
	// Tenant names the submitting tenant for per-tenant admission
	// control; empty means the default (unpartitioned) tenant. Tenancy
	// affects scheduling only when the scheduler carries a quota for the
	// tenant (Scheduler.SetTenantQuota).
	Tenant string
}

// ScheduledJob is a submitted job bound to its nodes.
type ScheduledJob struct {
	Spec JobSpec
	Job  *bsp.Job

	// info caches the job's policy view between replans: the
	// characterization entry and host limits are fixed for the job's
	// lifetime unless a failed host is swapped for a spare, which clears
	// infoValid.
	info      policy.JobInfo
	infoValid bool
	// demand is the power admission committed for the job while the
	// scheduler runs it (zero for a job submitted to the manager directly).
	demand units.Power
}

// DefaultCapRetries is how many times a failed power-limit write is
// retried before the manager gives up on the node and quarantines it. Two
// retries distinguish a transient glitch from the persistent msr-safe
// failures the fault plan injects.
const DefaultCapRetries = 2

// Manager owns the free pool, the scheduled jobs, and the quarantine drain
// set of nodes that stopped responding to power control.
type Manager struct {
	free []*node.Node
	jobs []*ScheduledJob
	// pool is every node the manager was built over, at its slot
	// (node.Node.Slot). Per-node state below is indexed the same way.
	pool []*node.Node
	// drained flags, by slot, the nodes in the quarantine drain set, and
	// nDrained counts them. A quarantined node never returns to the free
	// pool until Rejoin; one still referenced by a running job keeps
	// computing at its last programmed limit, but the manager stops
	// writing caps to it.
	drained  []bool
	nDrained int

	// Obs journals the manager's decisions (policy fallbacks, cap
	// retries, quarantines, rejoins) and cap-write spans; nil disables
	// instrumentation.
	Obs *obs.Sink

	// SpanParent, when valid, parents the per-node cap-write spans cap
	// batches open. The facility points it at the current replan-round span
	// before each replan and clears it after.
	SpanParent obs.SpanContext

	// OnQuarantine, when set, is invoked every time a node enters the
	// drain set, with the node ID and the reason ("cap_write", "release",
	// "crash", "read_fault"). It fires exactly once per quarantined node — repeat drains
	// are idempotent — so callers can count quarantines without watching
	// the journal. Called synchronously from the manager's goroutine.
	OnQuarantine func(id, reason string)
	// OnRejoin, when set, is invoked every time a repaired node returns to
	// the free pool (after its TDP limit is restored).
	OnRejoin func(id string)
	// BeforeSwap, when set, is invoked just before a spare replaces one of
	// sj's hosts. The event-driven facility settles the job's lazily
	// credited progress there, so iterations run on the failed host are
	// credited to it and not to the spare.
	BeforeSwap func(sj *ScheduledJob)

	// enc memoizes the PL1 window encoding for the writes the manager
	// issues itself: TDP resets on release and rejoin, and spare claims.
	// Replan caps go through each CapBatch's own encoder. The manager is
	// single-goroutine on the control path, so the encoder needs no
	// locking.
	enc rapl.LimitEncoder

	// lastCap records, by slot, the cap most recently programmed with
	// success on a node without injected faults, NaN where none is known.
	// CapBatch skips a host whose cap equals it. NaN compares unequal to
	// every cap, so an unknown register is always rewritten.
	lastCap []units.Power
}

// NewManager builds a manager over the given node pool and assigns each
// node its position in it as its slot (node.Node.SetSlot). A node serves
// one manager at a time: building another manager over it reassigns its
// slot.
func NewManager(pool []*node.Node) *Manager {
	lastCap := make([]units.Power, len(pool))
	for i, n := range pool {
		n.SetSlot(i)
		lastCap[i] = units.Power(math.NaN())
	}
	return &Manager{
		free:    append([]*node.Node(nil), pool...),
		pool:    append([]*node.Node(nil), pool...),
		drained: make([]bool, len(pool)),
		lastCap: lastCap,
	}
}

// FreeNodes returns the number of unallocated nodes.
func (m *Manager) FreeNodes() int { return len(m.free) }

// Jobs returns the scheduled jobs in submission order.
func (m *Manager) Jobs() []*ScheduledJob { return m.jobs }

// quarantine moves a node into the drain set (idempotent) and journals the
// decision. The node is not in the free pool afterwards.
func (m *Manager) quarantine(n *node.Node, reason string) {
	if m.drained[n.Slot()] {
		return
	}
	for i, f := range m.free {
		if f == n {
			m.free = append(m.free[:i], m.free[i+1:]...)
			break
		}
	}
	m.drained[n.Slot()] = true
	m.nDrained++
	m.Obs.Quarantine(n.ID, reason)
	if m.OnQuarantine != nil {
		m.OnQuarantine(n.ID, reason)
	}
}

// Drain takes a node out of service by ID: removed from the free pool or,
// if a running job holds it, left in place but quarantined so no further
// caps are written to it. It returns the holding job, if any. The facility
// calls this when the fault plan crashes a node.
func (m *Manager) Drain(id, reason string) (*ScheduledJob, bool) {
	var n *node.Node
	var holder *ScheduledJob
	for _, f := range m.free {
		if f.ID == id {
			n = f
			break
		}
	}
	if n == nil {
		for _, sj := range m.jobs {
			for _, h := range sj.Job.Hosts {
				if h.Node.ID == id {
					n, holder = h.Node, sj
					break
				}
			}
			if n != nil {
				break
			}
		}
	}
	if n == nil {
		return nil, false
	}
	m.quarantine(n, reason)
	return holder, holder != nil
}

// Rejoin returns a repaired node from the drain set to the free pool,
// restoring its TDP limit first. Nodes whose limit still cannot be
// programmed stay quarantined.
func (m *Manager) Rejoin(id string) bool {
	var n *node.Node
	for i, p := range m.pool {
		if m.drained[i] && p.ID == id {
			n = p
			break
		}
	}
	if n == nil {
		return false
	}
	if err := m.setLimit(n, n.TDP()); err != nil {
		return false
	}
	m.drained[n.Slot()] = false
	m.nDrained--
	m.free = append(m.free, n)
	m.Obs.Rejoin(id)
	if m.OnRejoin != nil {
		m.OnRejoin(id)
	}
	return true
}

// setLimit programs one node's power limit through the manager's encoder
// and records what its register is known to hold (see writeLimit).
func (m *Manager) setLimit(n *node.Node, watts units.Power) error {
	last, err := m.writeLimit(n, watts, &m.enc)
	m.lastCap[n.Slot()] = last
	return err
}

// writeLimit programs one node's power limit with bounded retries,
// journaling each retry and recording how many retries the write needed in
// the cap-write retry-count distribution. It returns the last error once
// the retry budget is spent, and the cap the node's last-cap slot may
// hold: watts after a success, NaN after a failure (the register may hold
// anything) or when the node carries an injected MSR fault. A faulty
// node's cap is thus never skipped, so its fault countdowns advance on
// every replan exactly as if every cap were rewritten.
func (m *Manager) writeLimit(n *node.Node, watts units.Power, enc *rapl.LimitEncoder) (units.Power, error) {
	var err error
	for attempt := 0; attempt <= DefaultCapRetries; attempt++ {
		if attempt > 0 {
			m.Obs.CapRetry(n.ID, watts.Watts(), attempt)
		}
		if _, err = n.SetPowerLimitCached(watts, enc); err == nil {
			m.Obs.CapWriteRetries(n.ID, attempt)
			if n.Faulty() {
				return units.Power(math.NaN()), nil
			}
			return watts, nil
		}
	}
	m.Obs.CapWriteRetries(n.ID, DefaultCapRetries)
	return units.Power(math.NaN()), err
}

// capUnchanged reports whether n's register is known to hold exactly
// watts already, so a rewrite would program the same bits.
func (m *Manager) capUnchanged(n *node.Node, watts units.Power) bool {
	return m.lastCap[n.Slot()] == watts
}

// Submit allocates nodes for the spec and schedules the job. The seed
// drives the job's OS-noise stream. When the request exceeds the free pool
// the error distinguishes, via errors.Is, a pool that is simply too small
// (ErrInsufficientNodes) from one starved by quarantined nodes
// (ErrNodeQuarantined — retry after repairs).
func (m *Manager) Submit(spec JobSpec, seed uint64) (*ScheduledJob, error) {
	if spec.Nodes <= 0 {
		return nil, fmt.Errorf("rm: job %s requests %d nodes", spec.ID, spec.Nodes)
	}
	if spec.Nodes > len(m.free) {
		if spec.Nodes <= len(m.free)+m.nDrained {
			return nil, fmt.Errorf("%w: job %s requests %d nodes, %d free, %d quarantined",
				ErrNodeQuarantined, spec.ID, spec.Nodes, len(m.free), m.nDrained)
		}
		return nil, fmt.Errorf("%w: job %s requests %d nodes, %d free",
			ErrInsufficientNodes, spec.ID, spec.Nodes, len(m.free))
	}
	alloc := m.free[:spec.Nodes]
	rest := m.free[spec.Nodes:]
	j, err := bsp.NewJob(spec.ID, spec.Config, alloc, seed)
	if err != nil {
		return nil, err
	}
	m.free = rest
	sj := &ScheduledJob{Spec: spec, Job: j}
	m.jobs = append(m.jobs, sj)
	return sj, nil
}

// ReleaseAll returns every job's nodes to the free pool and clears the
// schedule. A node whose TDP reset keeps failing after retries is
// quarantined instead of returned — one faulty host cannot strand the rest
// of the pool, and it can never be handed to a future job with a stale
// limit. Fault-driven reset failures are therefore handled, not reported:
// ReleaseAll errors only on conditions the drain set cannot absorb.
func (m *Manager) ReleaseAll() error {
	for _, sj := range m.jobs {
		m.releaseNodes(sj)
	}
	m.jobs = nil
	return nil
}

// releaseNodes returns one job's nodes to the free pool at TDP limits,
// quarantining any node whose reset persistently fails and skipping nodes
// already drained.
func (m *Manager) releaseNodes(sj *ScheduledJob) {
	for _, n := range sj.Job.Nodes() {
		if m.drained[n.Slot()] {
			continue
		}
		if err := m.setLimit(n, n.TDP()); err != nil {
			m.quarantine(n, "release")
			continue
		}
		m.free = append(m.free, n)
	}
}

// release returns one job's nodes to the free pool (at TDP limits, with
// failing nodes quarantined) and removes it from the schedule.
func (m *Manager) release(sj *ScheduledJob) error {
	idx := -1
	for i, cand := range m.jobs {
		if cand == sj {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("rm: job %s is not scheduled", sj.Spec.ID)
	}
	m.releaseNodes(sj)
	m.jobs = append(m.jobs[:idx], m.jobs[idx+1:]...)
	return nil
}

// JobInfos assembles the policy-layer view of the scheduled jobs from the
// characterization database. A job whose configuration is missing from the
// database, or whose entry fails validation (corrupt power fields), is
// marked Fallback instead of failing the whole plan: the policies give it a
// StaticCaps-style uniform share, and the substitution is journaled as a
// PolicyFallback decision.
func (m *Manager) JobInfos(db *charz.DB) ([]policy.JobInfo, error) {
	if db == nil {
		return nil, errors.New("rm: nil characterization database")
	}
	infos := make([]policy.JobInfo, 0, len(m.jobs))
	for _, sj := range m.jobs {
		if sj.infoValid {
			infos = append(infos, sj.info)
			continue
		}
		entry, err := db.MustGet(sj.Spec.Config)
		info := policy.JobInfo{ID: sj.Spec.ID, Char: entry}
		switch {
		case err != nil:
			info.Fallback = true
			info.Char = charz.Entry{}
			m.Obs.PolicyFallback(sj.Spec.ID, "not_characterized")
		case !entry.Valid():
			info.Fallback = true
			m.Obs.PolicyFallback(sj.Spec.ID, "corrupt_entry")
		}
		for _, h := range sj.Job.Hosts {
			info.Hosts = append(info.Hosts, policy.HostInfo{
				Role: h.Role,
				Min:  h.Node.MinLimit(),
				Max:  h.Node.TDP(),
			})
		}
		sj.info = info
		sj.infoValid = true
		infos = append(infos, info)
	}
	return infos, nil
}

// Plan asks the policy for an allocation under the budget.
func (m *Manager) Plan(p policy.Policy, budget units.Power, db *charz.DB) (policy.Allocation, error) {
	infos, err := m.JobInfos(db)
	if err != nil {
		return nil, err
	}
	return p.Allocate(policy.System{Budget: budget}, infos)
}

// Apply programs an allocation's per-host caps through the GEOPM static
// agent path (clamping to each host's settable range happens in the agent)
// as one CapBatch, committed before Apply returns.
//
// A host whose cap write persistently fails (after bounded retries) is
// quarantined and, when the free pool has a spare, replaced in the job in
// place: the spare takes the failed host's cap and role, and the job's
// barrier structure is untouched. With no spare available the faulty node
// stays in the job at its last programmed limit — the job keeps running,
// merely uncontrolled on that host — and the condition is journaled. Apply
// therefore errors only on structural problems (an allocation that does
// not match the schedule), never on injected or transient hardware faults:
// graceful degradation is the contract.
func (m *Manager) Apply(alloc policy.Allocation) error {
	b := m.NewCapBatch()
	var err error
	for i, sj := range m.jobs {
		caps, ok := alloc[sj.Spec.ID]
		if !ok {
			err = fmt.Errorf("rm: allocation missing job %s", sj.Spec.ID)
			break
		}
		if _, err = b.ApplyCaps(sj, i, caps); err != nil {
			break
		}
	}
	// Commit what was written even on error, so the last-cap slots match
	// the registers.
	m.CommitCapBatches([]*CapBatch{b})
	return err
}

// swapHost puts spare in place of sj's host i.
func (m *Manager) swapHost(sj *ScheduledJob, i int, spare *node.Node) {
	if m.BeforeSwap != nil {
		m.BeforeSwap(sj)
	}
	sj.Job.Hosts[i].Node = spare
	sj.infoValid = false
}

// takeSpare claims a free node that accepts the given cap, quarantining
// candidates that refuse it. Returns nil when the pool has no usable spare.
func (m *Manager) takeSpare(watts units.Power) *node.Node {
	for len(m.free) > 0 {
		spare := m.free[0]
		m.free = m.free[1:]
		if err := m.setLimit(spare, watts); err != nil {
			m.quarantine(spare, "cap_write")
			continue
		}
		return spare
	}
	return nil
}

// Overrun reports by how much an allocation exceeds the budget (zero when
// within budget). Precharacterized exhibits this at tight budgets
// (Figure 7); the manager reports rather than blocks, as the paper ran it.
// Sub-milliwatt excess is floating-point dust from summing hundreds of
// caps, not a real overrun.
func Overrun(alloc policy.Allocation, budget units.Power) units.Power {
	if t := alloc.Total(); t > budget+1e-3*units.Watt {
		return t - budget
	}
	return 0
}

// Clone returns an independent copy of the manager over pool, a same-ID
// copy of the manager's own pool in the same order (cluster.PoolState
// CopyFrom): the free list, drain set, last-cap slots and every scheduled
// job, with each node reference moved to its counterpart in pool, whose
// slots are assigned as NewManager assigns them. The jobs keep their
// order, so the copy's Jobs()[i] is the clone of Jobs()[i]. Obs, SpanParent
// and the callbacks are not copied; the caller binds its own.
func (m *Manager) Clone(pool []*node.Node) (*Manager, error) {
	if len(pool) != len(m.pool) {
		return nil, fmt.Errorf("rm: cannot clone a %d-node manager onto %d nodes", len(m.pool), len(pool))
	}
	for i, n := range pool {
		if n.ID != m.pool[i].ID {
			return nil, fmt.Errorf("rm: clone node %d is %s, want %s", i, n.ID, m.pool[i].ID)
		}
		n.SetSlot(i)
	}
	remap := func(n *node.Node) *node.Node { return pool[n.Slot()] }
	c := &Manager{
		free:     make([]*node.Node, len(m.free)),
		jobs:     make([]*ScheduledJob, len(m.jobs)),
		pool:     slices.Clone(pool),
		drained:  slices.Clone(m.drained),
		nDrained: m.nDrained,
		enc:      m.enc,
		lastCap:  slices.Clone(m.lastCap),
	}
	for i, n := range m.free {
		c.free[i] = remap(n)
	}
	for i, sj := range m.jobs {
		cj := *sj
		cj.Job = sj.Job.Clone(remap)
		cj.info.Hosts = slices.Clone(sj.info.Hosts)
		c.jobs[i] = &cj
	}
	return c, nil
}
