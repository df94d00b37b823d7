package geopm

import (
	"errors"
	"fmt"
	"time"

	"powerstack/internal/bsp"
	"powerstack/internal/node"
	"powerstack/internal/obs"
	"powerstack/internal/rapl"
	"powerstack/internal/units"
)

// Controller is the per-job GEOPM control loop: it programs limits through
// RAPL, runs bulk-synchronous iterations, samples telemetry from the RAPL
// energy counters, and lets the agent react — the execution-time feedback
// loop the paper emulates with pre-characterization runs. Run drives a
// whole job; a caller that interleaves the loop with other work (the
// coordination protocol's job runtimes) calls Start once and then Step per
// iteration.
type Controller struct {
	Job    *bsp.Job
	Agent  Agent
	Budget units.Power

	// Obs records per-iteration epochs and agent reallocations when
	// observability is enabled; nil is free.
	Obs *obs.Sink
	// Layer labels the epochs recorded in Obs; NewController sets "geopm".
	Layer string

	lastEnergy []units.Energy
	// hostEnergy accumulates each host's RAPL energy since Start, and
	// energy their sum in sampling order.
	hostEnergy []units.Energy
	energy     units.Energy
	// limits carries each host's PL1 as read at Start or last programmed:
	// the controller is its hosts' only writer, and SetPowerLimitCached
	// returns the read-back value, so the samples need no PL1 read.
	limits []units.Power
	// enc memoizes the PL1 window encoding applyLimits programs: the
	// balancer rewrites every host each iteration with the same 1 s window.
	enc rapl.LimitEncoder
	// scratch and sample are the per-host buffers every Step reuses: the
	// iteration's results and the agent's sample. A Step rewrites only
	// the measured fields of sample.Hosts; the bounds and IDs stay from
	// hostTemplates until the host's node in nodes is replaced.
	scratch bsp.IterationScratch
	sample  Sample
	nodes   []*node.Node
}

// NewController wires an agent to a job under a job-level power budget.
func NewController(job *bsp.Job, agent Agent, budget units.Power) (*Controller, error) {
	if job == nil || agent == nil {
		return nil, errors.New("geopm: controller needs a job and an agent")
	}
	if budget < 0 {
		return nil, fmt.Errorf("geopm: negative budget %v", budget)
	}
	return &Controller{Job: job, Agent: agent, Budget: budget, Layer: "geopm"}, nil
}

// hostTemplates builds the per-host bound information agents initialize
// from, and seeds the carried limits with each host's current PL1.
func (c *Controller) hostTemplates() ([]HostSample, error) {
	c.limits = make([]units.Power, len(c.Job.Hosts))
	hosts := make([]HostSample, len(c.Job.Hosts))
	for i, h := range c.Job.Hosts {
		limit, err := h.Node.PowerLimit()
		if err != nil {
			return nil, err
		}
		c.limits[i] = limit
		hosts[i] = HostSample{
			HostID:   h.Node.ID,
			Limit:    limit,
			MinLimit: h.Node.MinLimit(),
			MaxLimit: h.Node.TDP(),
		}
	}
	return hosts, nil
}

// applyLimits programs the agent-requested limits; nil leaves limits alone.
func (c *Controller) applyLimits(limits []units.Power) error {
	if limits == nil {
		return nil
	}
	if len(limits) != len(c.Job.Hosts) {
		return fmt.Errorf("geopm: agent returned %d limits for %d hosts", len(limits), len(c.Job.Hosts))
	}
	for i, h := range c.Job.Hosts {
		limit, err := h.Node.SetPowerLimitCached(limits[i], &c.enc)
		if err != nil {
			return err
		}
		c.limits[i] = limit
	}
	return nil
}

// Start programs the agent's initial limits and primes the RAPL energy
// counters the samples are measured from.
func (c *Controller) Start() error {
	hosts, err := c.hostTemplates()
	if err != nil {
		return err
	}
	if err := c.applyLimits(c.Agent.Initialize(c.Budget, hosts)); err != nil {
		return err
	}
	c.lastEnergy = make([]units.Energy, len(c.Job.Hosts))
	for i, h := range c.Job.Hosts {
		e, err := h.Node.Energy()
		if err != nil {
			return err
		}
		c.lastEnergy[i] = e
	}
	c.hostEnergy = make([]units.Energy, len(c.Job.Hosts))
	c.energy = 0
	c.nodes = c.Job.Nodes()
	// Agents copy what they keep of a sample, so the templates become the
	// sample buffer.
	c.sample = Sample{Hosts: hosts}
	return nil
}

// Step runs iteration k after Start: one bulk-synchronous iteration, its
// sample, and the agent's reaction, programmed before Step returns. The
// result's PerHost is valid until the next Step.
func (c *Controller) Step(k int) (bsp.IterationResult, error) {
	ir, err := c.Job.RunIterationInto(&c.scratch)
	if err != nil {
		return bsp.IterationResult{}, err
	}
	c.sample.Iteration, c.sample.Elapsed = k, ir.Elapsed
	secs := ir.Elapsed.Seconds()
	for i, h := range c.Job.Hosts {
		e, err := h.Node.Energy()
		if err != nil {
			return bsp.IterationResult{}, err
		}
		de := e - c.lastEnergy[i]
		c.lastEnergy[i] = e
		c.energy += de
		c.hostEnergy[i] += de
		hs := &c.sample.Hosts[i]
		if h.Node != c.nodes[i] {
			// A spare replaced the host: its bounds come from the new node.
			c.nodes[i] = h.Node
			hs.HostID, hs.MinLimit, hs.MaxLimit = h.Node.ID, h.Node.MinLimit(), h.Node.TDP()
		}
		hs.WorkTime = ir.PerHost[i].WorkTime
		// units.MeanPower(de, ir.Elapsed), on the seconds converted once.
		hs.Power = 0
		if secs > 0 {
			hs.Power = units.Power(float64(de) / secs)
		}
		hs.Limit = c.limits[i]
	}

	c.Obs.Epoch(c.Layer, c.Job.ID, k, secs)
	limits := c.Agent.Adjust(c.Budget, c.sample)
	if limits != nil && c.Obs.Enabled() {
		var moved units.Power
		for i := range limits {
			if limits[i] > c.sample.Hosts[i].Limit {
				moved += limits[i] - c.sample.Hosts[i].Limit
			}
		}
		c.Obs.Realloc(c.Job.ID, k, moved.Watts())
	}
	if err := c.applyLimits(limits); err != nil {
		return bsp.IterationResult{}, err
	}
	return ir, nil
}

// LastSample returns the sample the latest Step gave the agent; its Hosts
// are rewritten by the next Step.
func (c *Controller) LastSample() Sample { return c.sample }

// HostReport is one host's totals in a GEOPM report.
type HostReport struct {
	HostID string
	Role   bsp.Role
	// Energy is the host's total CPU energy over the run.
	Energy units.Energy
	// MeanPower is the host's run-average power (the Figure 4/5 cell
	// values).
	MeanPower units.Power
	// FinalLimit is the power limit at the end of the run — the
	// balancer's converged "needed power".
	FinalLimit units.Power
	// MeanWorkTime is the average time-to-barrier.
	MeanWorkTime time.Duration
	// MeanAchievedFreq is the run-average achieved frequency.
	MeanAchievedFreq units.Frequency
}

// Report is the GEOPM run report the policies consume.
type Report struct {
	JobID      string
	Agent      string
	Budget     units.Power
	Iterations int
	Elapsed    time.Duration
	// TotalEnergy sums host energies.
	TotalEnergy units.Energy
	// TotalFlops sums completed floating-point work.
	TotalFlops units.Flops
	// IterationTimes supports confidence intervals.
	IterationTimes []time.Duration
	Hosts          []HostReport
	// ConvergedAt is the iteration index at which the agent reported
	// convergence (-1 if it never did).
	ConvergedAt int
}

// MeanPower returns the run-average total job power.
func (r Report) MeanPower() units.Power {
	return units.MeanPower(r.TotalEnergy, r.Elapsed)
}

// MeanHostPower returns the run-average per-host power.
func (r Report) MeanHostPower() units.Power {
	if len(r.Hosts) == 0 {
		return 0
	}
	return r.MeanPower() / units.Power(len(r.Hosts))
}

// Run executes iters control-loop iterations and assembles the report.
func (c *Controller) Run(iters int) (Report, error) {
	if iters <= 0 {
		return Report{}, errors.New("geopm: iterations must be positive")
	}
	if err := c.Start(); err != nil {
		return Report{}, err
	}
	rep := Report{
		JobID:       c.Job.ID,
		Agent:       c.Agent.Name(),
		Budget:      c.Budget,
		Iterations:  iters,
		ConvergedAt: -1,
	}
	sumWork := make([]time.Duration, len(c.Job.Hosts))
	sumFreqTime := make([]float64, len(c.Job.Hosts))
	for k := 0; k < iters; k++ {
		ir, err := c.Step(k)
		if err != nil {
			return Report{}, err
		}
		rep.Elapsed += ir.Elapsed
		rep.TotalFlops += ir.TotalFlops
		rep.IterationTimes = append(rep.IterationTimes, ir.Elapsed)
		secs := ir.Elapsed.Seconds()
		for i := range ir.PerHost {
			sumWork[i] += ir.PerHost[i].WorkTime
			sumFreqTime[i] += ir.PerHost[i].AchievedFreq.Hz() * secs
		}
		if rep.ConvergedAt < 0 && c.Agent.Converged() {
			rep.ConvergedAt = k
		}
	}

	rep.TotalEnergy = c.energy
	rep.Hosts = make([]HostReport, len(c.Job.Hosts))
	for i, h := range c.Job.Hosts {
		rep.Hosts[i] = HostReport{
			HostID:           h.Node.ID,
			Role:             h.Role,
			Energy:           c.hostEnergy[i],
			MeanPower:        units.MeanPower(c.hostEnergy[i], rep.Elapsed),
			FinalLimit:       c.limits[i],
			MeanWorkTime:     sumWork[i] / time.Duration(iters),
			MeanAchievedFreq: units.Frequency(sumFreqTime[i] / rep.Elapsed.Seconds()),
		}
	}
	return rep, nil
}
