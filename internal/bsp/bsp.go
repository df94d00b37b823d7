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

	rng *rand.Rand
}

// DefaultNoiseSigma is the OS-noise level of the simulated system: a few
// tenths of a percent of iteration time, matching the tight error bars of
// Figure 8.
const DefaultNoiseSigma = 0.004

// NewJob builds a job over the given nodes. The waiting-rank fraction of
// the config decides how many hosts wait: round(waitingFraction * len).
// Waiting hosts are the tail of the node list. The seed drives OS noise.
func NewJob(id string, cfg kernel.Config, nodes []*node.Node, seed uint64) (*Job, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("bsp: job %s: %w", id, err)
	}
	if len(nodes) == 0 {
		return nil, errors.New("bsp: job needs at least one node")
	}
	nWaiting := WaitingHosts(cfg, len(nodes))
	j := &Job{
		ID:         id,
		Config:     cfg,
		NoiseSigma: DefaultNoiseSigma,
		rng:        rand.New(rand.NewPCG(seed, seed^0xD1B54A32D192ED03)),
	}
	for i, n := range nodes {
		role := Critical
		if i >= len(nodes)-nWaiting {
			role = Waiting
		}
		j.Hosts = append(j.Hosts, Host{Node: n, Role: role})
	}
	return j, nil
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

// CriticalHosts returns the number of critical hosts.
func (j *Job) CriticalHosts() int {
	n := 0
	for _, h := range j.Hosts {
		if h.Role == Critical {
			n++
		}
	}
	return n
}

// Nodes returns the job's nodes in host order.
func (j *Job) Nodes() []*node.Node {
	out := make([]*node.Node, len(j.Hosts))
	for i, h := range j.Hosts {
		out[i] = h.Node
	}
	return out
}

// HostIteration is one host's share of one iteration.
type HostIteration struct {
	Node         *node.Node
	Role         Role
	WorkTime     time.Duration
	Energy       units.Energy
	DRAMEnergy   units.Energy
	MeanPower    units.Power
	AchievedFreq units.Frequency
	Flops        units.Flops
}

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

// MeanHostPower returns the average per-host power over the iteration.
func (r IterationResult) MeanHostPower() units.Power {
	if len(r.PerHost) == 0 || r.Elapsed <= 0 {
		return 0
	}
	return units.MeanPower(r.TotalEnergy, r.Elapsed) / units.Power(len(r.PerHost))
}

// RunIteration executes one barrier-to-barrier iteration at the hosts'
// current power limits. For phased jobs the schedule may switch the active
// configuration (and roles) before the iteration starts. The result owns
// its PerHost slice.
func (j *Job) RunIteration() (IterationResult, error) {
	return j.RunIterationInto(new(IterationScratch))
}

// IterationScratch is the per-host storage of one iteration, reusable by a
// caller that runs a job's iterations back to back (the GEOPM control
// loop) so they stop allocating. The zero value is ready to use.
type IterationScratch struct {
	plans []hostPlan
	per   []HostIteration
}

// hostPlan is one host's critical-path pass result.
type hostPlan struct {
	ph     cpumodel.Phase
	jitter float64
	work   time.Duration
}

// RunIterationInto is RunIteration with its per-host storage taken from
// scratch. The result's PerHost aliases scratch: it is valid until the next
// call with the same scratch.
func (j *Job) RunIterationInto(scratch *IterationScratch) (IterationResult, error) {
	j.advancePhase()
	n := len(j.Hosts)
	if cap(scratch.plans) < n {
		scratch.plans = make([]hostPlan, n)
		scratch.per = make([]HostIteration, n)
	}
	plans := scratch.plans[:n]

	// Phase 1: find the critical path under current caps.
	var barrier time.Duration
	for i, h := range j.Hosts {
		ph := j.Phase(h.Role)
		base, err := h.Node.WorkTime(ph)
		if err != nil {
			return IterationResult{}, fmt.Errorf("bsp: job %s host %s: %w", j.ID, h.Node.ID, err)
		}
		jitter := 1.0
		if j.NoiseSigma > 0 {
			jitter = 1 + j.NoiseSigma*j.rng.NormFloat64()
			if jitter < 0.9 {
				jitter = 0.9
			}
		}
		work := time.Duration(float64(base) * jitter)
		plans[i] = hostPlan{ph: ph, jitter: jitter, work: work}
		if work > barrier {
			barrier = work
		}
	}

	// Phase 2: every host completes the iteration, spinning to the
	// barrier.
	res := IterationResult{Elapsed: barrier, PerHost: scratch.per[:n]}
	for i, h := range j.Hosts {
		pr, err := h.Node.CompleteIteration(plans[i].ph, barrier, plans[i].jitter)
		if err != nil {
			return IterationResult{}, fmt.Errorf("bsp: job %s host %s: %w", j.ID, h.Node.ID, err)
		}
		res.PerHost[i] = HostIteration{
			Node:         h.Node,
			Role:         h.Role,
			WorkTime:     pr.WorkTime,
			Energy:       pr.Energy,
			DRAMEnergy:   pr.DRAMEnergy,
			MeanPower:    pr.MeanPower,
			AchievedFreq: pr.AchievedFreq,
			Flops:        pr.Flops,
		}
		res.TotalEnergy += pr.Energy
		res.TotalDRAMEnergy += pr.DRAMEnergy
		res.TotalFlops += pr.Flops
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
	for i, h := range ir.PerHost {
		if i >= len(j.Hosts) {
			break
		}
		j.Hosts[i].Node.CreditIterations(node.PhaseResult{
			WorkTime:     h.WorkTime,
			Energy:       h.Energy,
			DRAMEnergy:   h.DRAMEnergy,
			MeanPower:    h.MeanPower,
			AchievedFreq: h.AchievedFreq,
			Flops:        h.Flops,
		}, ir.Elapsed, from, to)
	}
	j.iterCount += to - from
}

// RunResult aggregates a multi-iteration run of one job.
type RunResult struct {
	Iterations      int
	Elapsed         time.Duration
	TotalEnergy     units.Energy
	TotalDRAMEnergy units.Energy
	TotalFlops      units.Flops
	// IterationTimes holds each iteration's elapsed time, the sample the
	// paper's 95% confidence intervals are computed over.
	IterationTimes []time.Duration
	// HostMeanPower holds each host's run-average power, the quantity
	// behind the Figure 4/5 heatmaps.
	HostMeanPower []units.Power
}

// Run executes iters iterations and aggregates the results.
func (j *Job) Run(iters int) (RunResult, error) {
	if iters <= 0 {
		return RunResult{}, errors.New("bsp: iterations must be positive")
	}
	res := RunResult{Iterations: iters}
	hostEnergy := make([]units.Energy, len(j.Hosts))
	var scratch IterationScratch
	for k := 0; k < iters; k++ {
		ir, err := j.RunIterationInto(&scratch)
		if err != nil {
			return RunResult{}, err
		}
		res.Elapsed += ir.Elapsed
		res.TotalEnergy += ir.TotalEnergy
		res.TotalDRAMEnergy += ir.TotalDRAMEnergy
		res.TotalFlops += ir.TotalFlops
		res.IterationTimes = append(res.IterationTimes, ir.Elapsed)
		for i, h := range ir.PerHost {
			hostEnergy[i] += h.Energy
		}
	}
	res.HostMeanPower = make([]units.Power, len(j.Hosts))
	for i, e := range hostEnergy {
		res.HostMeanPower[i] = units.MeanPower(e, res.Elapsed)
	}
	return res, nil
}

// MeanPower returns the run's average total power across all hosts.
func (r RunResult) MeanPower() units.Power {
	return units.MeanPower(r.TotalEnergy, r.Elapsed)
}

// EDP returns the run's energy-delay product.
func (r RunResult) EDP() float64 {
	return units.EDP(r.TotalEnergy, r.Elapsed)
}

// FlopsPerWatt returns the run's science-per-watt metric.
func (r RunResult) FlopsPerWatt() float64 {
	return units.FlopsPerWatt(r.TotalFlops, r.TotalEnergy)
}
