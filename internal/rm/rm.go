// Package rm is the resource-manager half of the stack (the SLURM role in
// the paper): it owns the node pool, schedules jobs onto nodes, asks a
// Section III policy for a system-wide power allocation, programs the
// resulting per-host caps through the GEOPM runtime, and runs the job mix.
//
// The paper emulates the execution-time feedback loop between resource
// manager and job runtime by pre-characterizing workloads; accordingly the
// manager consumes a charz.DB and applies static per-host caps for a run.
package rm

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"powerstack/internal/bsp"
	"powerstack/internal/charz"
	"powerstack/internal/geopm"
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

	// info caches the job's policy view between replans (Incremental mode):
	// the characterization entry and host limits are fixed for the job's
	// lifetime unless a failed host is swapped for a spare, which clears
	// infoValid.
	info      policy.JobInfo
	infoValid bool
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

	// Obs is propagated to the GEOPM controllers RunAll spawns; nil
	// disables instrumentation. The registry and journal are safe under
	// RunAll's concurrent jobs.
	Obs *obs.Sink

	// SpanParent, when valid, parents the per-node cap-write spans Apply
	// opens. The facility points it at the current replan-round span before
	// each Plan/Apply pair and clears it after.
	SpanParent obs.SpanContext

	// Workers bounds how many jobs RunAll executes concurrently; zero or
	// negative selects runtime.GOMAXPROCS(0). Callers that already fan
	// out above the manager (the parallel evaluation grid) lower it to
	// keep total goroutine pressure proportional to the machine.
	Workers int

	// CapRetries overrides DefaultCapRetries (negative disables retries;
	// zero selects the default).
	CapRetries int

	// OnQuarantine, when set, is invoked every time a node enters the
	// drain set, with the node ID and the reason ("cap_write", "release",
	// "crash"). It fires exactly once per quarantined node — repeat drains
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

	// enc memoizes PL1 field encodings across all cap writes this manager
	// issues (a replan programs the same few distinct wattages across
	// thousands of sockets). The manager is single-goroutine on the
	// control path, so the encoder needs no locking.
	enc rapl.LimitEncoder

	// Incremental enables the scale-path replan shortcuts: ApplyCaps skips
	// hosts whose cap equals the last successfully programmed value, and
	// JobInfos reuses each job's policy view between replans. The register
	// state each replan converges to is the same; what changes is MSR
	// traffic (skipped rewrites consume no fault countdowns) and fallback
	// journaling cadence — so the facility enables it only in scale mode,
	// never on the small-N exactness path.
	Incremental bool
	// lastCap records, by slot, the cap most recently programmed with
	// success, NaN where none is known; only maintained when Incremental
	// is set. NaN compares unequal to every cap, so an unknown register is
	// always rewritten.
	lastCap []units.Power
	// changed collects the IDs of jobs that had at least one host cap
	// actually (re)programmed since the last TakeChangedJobs drain.
	changed map[string]bool
}

// NewManager builds a manager over the given node pool and assigns each
// node its position in it as its slot (node.Node.SetSlot). A node serves
// one manager at a time: building another manager over it reassigns its
// slot.
func NewManager(pool []*node.Node) *Manager {
	for i, n := range pool {
		n.SetSlot(i)
	}
	return &Manager{
		free:    append([]*node.Node(nil), pool...),
		pool:    append([]*node.Node(nil), pool...),
		drained: make([]bool, len(pool)),
	}
}

// FreeNodes returns the number of unallocated nodes.
func (m *Manager) FreeNodes() int { return len(m.free) }

// Jobs returns the scheduled jobs in submission order.
func (m *Manager) Jobs() []*ScheduledJob { return m.jobs }

// Quarantined returns the drained nodes, sorted by ID.
func (m *Manager) Quarantined() []*node.Node {
	out := make([]*node.Node, 0, m.nDrained)
	for i, n := range m.pool {
		if m.drained[i] {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

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

// setLimit programs one node's power limit with bounded retries, journaling
// each retry and recording how many retries the write needed in the
// cap-write retry-count distribution. It returns the last error once the
// retry budget is spent.
func (m *Manager) setLimit(n *node.Node, watts units.Power) error {
	retries := m.CapRetries
	if retries == 0 {
		retries = DefaultCapRetries
	}
	if retries < 0 {
		retries = 0
	}
	var err error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			m.Obs.CapRetry(n.ID, watts.Watts(), attempt)
		}
		if _, err = n.SetPowerLimitCached(watts, &m.enc); err == nil {
			m.Obs.CapWriteRetries(n.ID, attempt)
			if m.Incremental {
				m.lastCaps()[n.Slot()] = watts
			}
			return nil
		}
	}
	m.Obs.CapWriteRetries(n.ID, retries)
	m.forgetCap(n)
	return err
}

// lastCaps returns the last-cap slots, allocating them (all unknown) on
// first use.
func (m *Manager) lastCaps() []units.Power {
	if m.lastCap == nil {
		m.lastCap = make([]units.Power, len(m.pool))
		for i := range m.lastCap {
			m.lastCap[i] = units.Power(math.NaN())
		}
	}
	return m.lastCap
}

// capUnchanged reports whether n's register is known to hold exactly
// watts already, so a rewrite would program the same bits.
func (m *Manager) capUnchanged(n *node.Node, watts units.Power) bool {
	return m.lastCap != nil && m.lastCap[n.Slot()] == watts
}

// forgetCap marks n's register contents unknown: after a failed write it
// may hold anything, so no future identical-looking cap may be skipped
// against it.
func (m *Manager) forgetCap(n *node.Node) {
	if m.lastCap != nil {
		m.lastCap[n.Slot()] = units.Power(math.NaN())
	}
}

// TakeChangedJobs drains the set of job IDs whose caps were actually
// reprogrammed since the previous drain (Incremental mode only; always
// empty otherwise). The event core uses it to bound re-probing after a
// replan to the jobs whose operating point could have moved.
func (m *Manager) TakeChangedJobs() map[string]bool {
	ch := m.changed
	m.changed = nil
	return ch
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
		if m.Incremental && sj.infoValid {
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
		if m.Incremental {
			sj.info = info
			sj.infoValid = true
		}
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
// agent path (clamping to each host's settable range happens in the agent).
//
// A host whose cap write persistently fails (after setLimit's bounded
// retries) is quarantined and, when the free pool has a spare, replaced in
// the job in place: the spare takes the failed host's cap and role, and
// the job's barrier structure is untouched. With no spare available the
// faulty node stays in the job at its last programmed limit — the job
// keeps running, merely uncontrolled on that host — and the condition is
// journaled. Apply therefore errors only on structural problems (an
// allocation that does not match the schedule), never on injected or
// transient hardware faults: graceful degradation is the contract.
func (m *Manager) Apply(alloc policy.Allocation) error {
	for _, sj := range m.jobs {
		caps, ok := alloc[sj.Spec.ID]
		if !ok {
			return fmt.Errorf("rm: allocation missing job %s", sj.Spec.ID)
		}
		if err := m.ApplyCaps(sj, caps); err != nil {
			return err
		}
	}
	return nil
}

// ApplyCaps programs one job's per-host caps in a single batch over the
// host vector — the unit of work hierarchical replans hand the manager per
// rack. The per-host semantics are exactly Apply's: quarantined hosts are
// skipped, each write gets a cap_write span and setLimit's bounded retries,
// and a persistently failing host is quarantined and replaced by a spare
// when one exists. Errors are structural only (cap/host count mismatch).
func (m *Manager) ApplyCaps(sj *ScheduledJob, caps []units.Power) error {
	if len(caps) != len(sj.Job.Hosts) {
		return fmt.Errorf("rm: job %s: %d caps for %d hosts", sj.Spec.ID, len(caps), len(sj.Job.Hosts))
	}
	for i := range sj.Job.Hosts {
		n := sj.Job.Hosts[i].Node
		if m.drained[n.Slot()] {
			// Already given up on: keep the job running at the
			// node's last limit without another retry storm.
			continue
		}
		if m.Incremental {
			if m.capUnchanged(n, caps[i]) {
				continue
			}
			if m.changed == nil {
				m.changed = map[string]bool{}
			}
			m.changed[sj.Spec.ID] = true
		}
		sp := m.Obs.StartSpan(m.SpanParent, "rm", "cap_write").
			SetScope(sj.Spec.ID).SetHost(n.ID).SetValue(caps[i].Watts())
		err := m.setLimit(n, caps[i])
		if err == nil {
			sp.End()
			continue
		}
		m.quarantine(n, "cap_write")
		if spare := m.takeSpare(caps[i]); spare != nil {
			m.swapHost(sj, i, spare)
			sp.SetHost(spare.ID)
		}
		sp.End()
	}
	return nil
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

// RunAll runs every scheduled job for iters iterations concurrently (jobs
// share no nodes) and returns their GEOPM reports in submission order.
// Limits must already be applied; each job runs under a monitor agent so
// the caps the policy programmed stay in force.
func (m *Manager) RunAll(iters int) ([]geopm.Report, error) {
	if len(m.jobs) == 0 {
		return nil, errors.New("rm: no jobs scheduled")
	}
	reports := make([]geopm.Report, len(m.jobs))
	errs := make([]error, len(m.jobs))
	workers := m.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, sj := range m.jobs {
		wg.Add(1)
		go func(i int, sj *ScheduledJob) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			ctl, err := geopm.NewController(sj.Job, geopm.Monitor{}, 0)
			if err != nil {
				errs[i] = err
				return
			}
			ctl.Obs = m.Obs
			reports[i], errs[i] = ctl.Run(iters)
		}(i, sj)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return reports, nil
}
