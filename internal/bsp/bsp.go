// Package bsp executes bulk-synchronous-parallel jobs on simulated nodes,
// reproducing the iteration structure of Figure 2: every host computes its
// share of the iteration, then polls at a barrier until the critical path
// arrives. The elapsed time of an iteration is the maximum host work time
// (the critical path), and hosts that arrive early burn spin-wait energy —
// the waste the paper's application-aware policies harvest.
//
// Rank placement is block-wise, so a host is either entirely on the
// critical path or entirely waiting, which is what makes host-level RAPL
// steering effective.
package bsp

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"powerstack/internal/cpumodel"
	"powerstack/internal/kernel"
	"powerstack/internal/node"
	"powerstack/internal/units"
)

// Role marks a host's position relative to the iteration's critical path.
type Role int

// Host roles.
const (
	// Critical hosts carry the imbalance-scaled work that gates the
	// barrier.
	Critical Role = iota
	// Waiting hosts carry the base work and poll at the barrier.
	Waiting
)

// String names the role.
func (r Role) String() string {
	if r == Waiting {
		return "waiting"
	}
	return "critical"
}

// Host is one node's membership in a job.
type Host struct {
	Node *node.Node
	Role Role
}

// Job is one bulk-synchronous application instance.
type Job struct {
	ID     string
	Config kernel.Config
	Hosts  []Host

	// NoiseSigma is the relative standard deviation of per-iteration OS
	// noise on host work time (0 disables noise).
	NoiseSigma float64

	// schedule, when non-empty, cycles the job through multiple phases
	// (see SetSchedule); iterCount tracks progress through it.
	schedule  []PhaseSegment
	iterCount int

	// rng draws the noise from pcg, kept so Clone can copy the stream's
	// state.
	rng *rand.Rand
	pcg *rand.PCG
}

// DefaultNoiseSigma is the OS-noise level of the simulated system: a few
// tenths of a percent of iteration time, matching the tight error bars of
// Figure 8.
const DefaultNoiseSigma = 0.004

// NewJob builds a job over the given nodes. The waiting-rank fraction of
// the config decides how many hosts wait: round(waitingFraction * len).
// Waiting hosts are the tail of the node list. The seed drives OS noise.
// A node may appear only once, since it holds one planned operating point.
func NewJob(id string, cfg kernel.Config, nodes []*node.Node, seed uint64) (*Job, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("bsp: job %s: %w", id, err)
	}
	if len(nodes) == 0 {
		return nil, errors.New("bsp: job needs at least one node")
	}
	nWaiting := WaitingHosts(cfg, len(nodes))
	pcg := rand.NewPCG(seed, seed^0xD1B54A32D192ED03)
	j := &Job{
		ID:         id,
		Config:     cfg,
		NoiseSigma: DefaultNoiseSigma,
		rng:        rand.New(pcg),
		pcg:        pcg,
	}
	seen := make(map[*node.Node]bool, len(nodes))
	for i, n := range nodes {
		if seen[n] {
			return nil, fmt.Errorf("bsp: job %s lists node %s twice", id, n.ID)
		}
		seen[n] = true
		role := Critical
		if i >= len(nodes)-nWaiting {
			role = Waiting
		}
		j.Hosts = append(j.Hosts, Host{Node: n, Role: role})
	}
	return j, nil
}

// Clone returns an independent copy of the job, its hosts moved to the
// nodes remap returns: the same configuration, phase position and noise
// stream state, so the copy draws the noise the original would draw next.
// The phase schedule is shared; it is never modified after SetSchedule.
func (j *Job) Clone(remap func(*node.Node) *node.Node) *Job {
	c := *j
	c.Hosts = make([]Host, len(j.Hosts))
	for i, h := range j.Hosts {
		c.Hosts[i] = Host{Node: remap(h.Node), Role: h.Role}
	}
	pcg := *j.pcg
	c.pcg = &pcg
	c.rng = rand.New(c.pcg)
	return &c
}

// WaitingHosts returns how many of n hosts a job with the given config
// places on the non-critical path: round(waitingFraction * n), keeping at
// least one critical host. The budget-selection logic of Table III uses the
// same rule to predict role counts without building a job.
func WaitingHosts(cfg kernel.Config, n int) int {
	w := int(cfg.WaitingFraction()*float64(n) + 0.5)
	if w >= n && cfg.WaitingPct > 0 {
		w = n - 1
	}
	return w
}

// Phase returns the per-core work phase for the given role.
func (j *Job) Phase(r Role) cpumodel.Phase {
	if r == Waiting {
		return cpumodel.Phase{Work: j.Config.WaitingWork(), Vector: j.Config.Vector}
	}
	return cpumodel.Phase{Work: j.Config.CriticalWork(), Vector: j.Config.Vector}
}

// Nodes returns the job's nodes in host order.
func (j *Job) Nodes() []*node.Node {
	out := make([]*node.Node, len(j.Hosts))
	for i, h := range j.Hosts {
		out[i] = h.Node
	}
	return out
}

// HostIteration is one host's share of one iteration: the node's own
// result (node.FinishIteration writes it in place) and its role.
type HostIteration struct {
	Node *node.Node
	Role Role
	node.PhaseResult
}

// HostError is an iteration that failed on one host: its node could not
// plan or finish its share (an MSR read failure, typically), and the
// iteration was abandoned there. Callers drain the node it names.
type HostError struct {
	Job  string
	Node *node.Node
	Err  error
}

func (e *HostError) Error() string {
	return fmt.Sprintf("bsp: job %s host %s: %v", e.Job, e.Node.ID, e.Err)
}

func (e *HostError) Unwrap() error { return e.Err }

// IterationResult aggregates one bulk-synchronous iteration.
type IterationResult struct {
	Elapsed time.Duration
	// TotalEnergy is the CPU (package) energy; TotalDRAMEnergy the
	// measured-but-ungoverned DRAM domain.
	TotalEnergy     units.Energy
	TotalDRAMEnergy units.Energy
	TotalFlops      units.Flops
	PerHost         []HostIteration
}

// IterationScratch is the per-host storage of one iteration, reusable by a
// caller that runs a job's iterations back to back (the GEOPM control
// loop, a facility job's probes) so they stop allocating. The zero value
// is ready to use.
type IterationScratch struct {
	// phases holds the iteration's per-role work phases, indexed by Role.
	phases [2]cpumodel.Phase
	plans  []hostPlan
	per    []HostIteration
}

// hostPlan is one host's critical-path pass result.
type hostPlan struct {
	ph     *cpumodel.Phase
	jitter float64
}

// RunIterationInto executes one barrier-to-barrier iteration at the hosts'
// current power limits, with its per-host storage taken from scratch. For
// phased jobs the schedule may switch the active configuration (and roles)
// before the iteration starts. The result's PerHost aliases scratch: it is
// valid until the next call with the same scratch. Each host is planned
// once and finished once on that plan, writing its result into its PerHost
// slot.
func (j *Job) RunIterationInto(scratch *IterationScratch) (IterationResult, error) {
	j.advancePhase()
	n := len(j.Hosts)
	if cap(scratch.plans) < n {
		scratch.plans = make([]hostPlan, n)
		scratch.per = make([]HostIteration, n)
	}
	plans := scratch.plans[:n]
	scratch.phases[Critical] = j.Phase(Critical)
	scratch.phases[Waiting] = j.Phase(Waiting)

	// Phase 1: find the critical path under current caps.
	var barrier time.Duration
	for i, h := range j.Hosts {
		ph := &scratch.phases[h.Role]
		base, err := h.Node.PlanIteration(ph)
		if err != nil {
			return IterationResult{}, &HostError{Job: j.ID, Node: h.Node, Err: err}
		}
		jitter := 1.0
		if j.NoiseSigma > 0 {
			jitter = 1 + j.NoiseSigma*j.rng.NormFloat64()
			if jitter < 0.9 {
				jitter = 0.9
			}
		}
		work := time.Duration(float64(base) * jitter)
		// Pointers are stored only when they change: a reused scratch
		// then skips the write barrier on every host of every iteration.
		p := &plans[i]
		if p.ph != ph {
			p.ph = ph
		}
		p.jitter = jitter
		if work > barrier {
			barrier = work
		}
	}

	// Phase 2: every host completes the iteration, spinning to the
	// barrier.
	res := IterationResult{Elapsed: barrier, PerHost: scratch.per[:n]}
	for i, h := range j.Hosts {
		hi := &res.PerHost[i]
		if hi.Node != h.Node {
			hi.Node = h.Node
		}
		hi.Role = h.Role
		if err := h.Node.FinishIteration(plans[i].ph, barrier, plans[i].jitter, &hi.PhaseResult); err != nil {
			return IterationResult{}, &HostError{Job: j.ID, Node: h.Node, Err: err}
		}
		res.TotalEnergy += hi.Energy
		res.TotalDRAMEnergy += hi.DRAMEnergy
		res.TotalFlops += hi.Flops
	}
	return res, nil
}

// CreditSteadyState credits repetitions [from, to) of a previously sampled
// iteration analytically, counted from the sample: each host's energy,
// time, and flops accounting advances as if the iteration repeated to-from
// times at the same operating point, without re-running the compute model.
// The event-driven facility uses this to jump a job from one settlement to
// the next in O(hosts) instead of O(hosts x iterations); because
// node.CreditIterations telescopes, splitting [0, n) at any points programs
// the same registers as one credit. Crediting goes to the job's CURRENT
// nodes (spare swaps may have replaced the ones ir sampled), indexed by host
// position. to <= from is a no-op.
func (j *Job) CreditSteadyState(ir IterationResult, from, to int) {
	if to <= from {
		return
	}
	for i := range ir.PerHost {
		if i >= len(j.Hosts) {
			break
		}
		j.Hosts[i].Node.CreditIterations(&ir.PerHost[i].PhaseResult, ir.Elapsed, from, to)
	}
	j.iterCount += to - from
}
