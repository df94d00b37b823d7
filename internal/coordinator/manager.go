package coordinator

import (
	"context"
	"errors"
	"fmt"
	"time"

	"powerstack/internal/bsp"
	"powerstack/internal/engine"
	"powerstack/internal/fault"
	"powerstack/internal/geopm"
	"powerstack/internal/obs"
	"powerstack/internal/units"
)

// DefaultHoldRounds is how many consecutive protocol rounds the coordinator
// holds a job's previous grant when its Request goes missing, before
// concluding the runtime is gone and reclaiming the job's budget span.
const DefaultHoldRounds = 3

// Coordinator is the resource-manager endpoint of the protocol: it owns the
// system budget and renegotiates per-job budgets from the runtimes'
// Requests every control interval.
type Coordinator struct {
	// Budget is the system-wide power limit.
	Budget units.Power
	// ShareAcrossJobs enables cross-job power steering (the online
	// MixedAdaptive). When false, each job keeps its uniform share for
	// the whole run (the online JobAdaptive), which isolates the value
	// of the protocol's system-level half.
	ShareAcrossJobs bool
	// Faults consults a fault plan for dropped Requests; nil injects
	// nothing.
	Faults *fault.Plan

	Runtimes []*Runtime

	// SpanParent links the per-iteration coord_iter spans into an enclosing
	// trace (a facility run, an obsdump demo); the zero value starts a new
	// trace per iteration's span tree root.
	SpanParent obs.SpanContext

	obs *obs.Sink
	// misses counts consecutive missing Requests per runtime.
	misses []int
}

// SetObs attaches an observability sink to the coordinator, its job
// runtimes, and every node under them. A nil sink detaches the coordinator
// and runtimes (node sinks are left as-is).
func (c *Coordinator) SetObs(s *obs.Sink) {
	c.obs = s
	for _, rt := range c.Runtimes {
		rt.Obs = s
		if s != nil {
			for _, h := range rt.Job.Hosts {
				h.Node.SetObs(s)
			}
		}
	}
}

// New builds a coordinator over the given jobs.
func New(budget units.Power, jobs []*bsp.Job, shareAcrossJobs bool) (*Coordinator, error) {
	if budget <= 0 {
		return nil, errors.New("coordinator: budget must be positive")
	}
	if len(jobs) == 0 {
		return nil, errors.New("coordinator: no jobs")
	}
	c := &Coordinator{Budget: budget, ShareAcrossJobs: shareAcrossJobs}
	totalHosts := 0
	for _, j := range jobs {
		totalHosts += len(j.Hosts)
	}
	// Initial grants: uniform per host, exactly the offline policies'
	// step 1.
	per := budget / units.Power(totalHosts)
	for _, j := range jobs {
		// With the protocol active, job runtimes harvest slack power and
		// release it upward instead of hoarding it for their own
		// critical hosts — the system-level half of MixedAdaptive.
		b := geopm.NewPowerBalancer()
		b.ReleaseFreedPower = shareAcrossJobs
		ctl, err := geopm.NewController(j, b, per*units.Power(len(j.Hosts)))
		if err != nil {
			return nil, err
		}
		ctl.Layer = "coordinator"
		if err := ctl.Start(); err != nil {
			return nil, fmt.Errorf("coordinator: starting job %s: %w", j.ID, err)
		}
		c.Runtimes = append(c.Runtimes, &Runtime{ctl})
	}
	return c, nil
}

// Allocate is the protocol's system-level decision: map Requests to Grants
// under the budget. Exported for direct testing.
//
//   - Every job is granted at least its Min.
//   - If the aggregate Needed fits, each job gets Needed and the surplus is
//     steered to jobs that can still use it, proportional to
//     (MaxUseful - Needed).
//   - Under deficit, the span between Min and Needed is scaled uniformly.
func Allocate(budget units.Power, reqs []Request) []Grant {
	return allocateInto(make([]Grant, len(reqs)), budget, reqs)
}

// allocateInto is Allocate writing into a caller-provided slice of
// len(reqs) — the scratch-pooled form HierAlloc uses so a replan's many
// per-rack rounds reuse one buffer.
func allocateInto(grants []Grant, budget units.Power, reqs []Request) []Grant {
	var totalMin, totalNeeded units.Power
	for _, r := range reqs {
		totalMin += r.Min
		totalNeeded += r.Needed
	}
	switch {
	case totalNeeded <= budget:
		surplus := budget - totalNeeded
		var headroom units.Power
		for _, r := range reqs {
			if r.MaxUseful > r.Needed {
				headroom += r.MaxUseful - r.Needed
			}
		}
		for i, r := range reqs {
			g := r.Needed
			if headroom > 0 && r.MaxUseful > r.Needed {
				share := units.Power(float64(surplus) * float64(r.MaxUseful-r.Needed) / float64(headroom))
				if share > r.MaxUseful-r.Needed {
					share = r.MaxUseful - r.Needed
				}
				g += share
			}
			grants[i] = Grant{JobID: r.JobID, Budget: g}
		}
	case totalMin >= budget:
		// Even the floors exceed the budget: grant floors (hardware
		// cannot be set lower anyway).
		for i, r := range reqs {
			grants[i] = Grant{JobID: r.JobID, Budget: r.Min}
		}
	default:
		scale := float64(budget-totalMin) / float64(totalNeeded-totalMin)
		for i, r := range reqs {
			g := r.Min + units.Power(scale*float64(r.Needed-r.Min))
			grants[i] = Grant{JobID: r.JobID, Budget: g}
		}
	}
	return grants
}

// Result aggregates a coordinated run.
type Result struct {
	Iterations  int
	Elapsed     time.Duration // node-weighted mean of job elapsed times
	TotalEnergy units.Energy
	TotalFlops  units.Flops
	// MeanPower is the run-average total power across jobs.
	MeanPower units.Power
	// IterTimes is the node-weighted mean iteration time series.
	IterTimes []float64
	// GrantHistory records each job's granted budget per protocol round.
	GrantHistory map[string][]units.Power
}

// heldRequest synthesizes the Request for a runtime whose real one went
// missing this round. Within the hold horizon, the job's previous grant is
// pinned (Needed = Min = MaxUseful = grant) so the allocation cannot move
// it; past the horizon, the job is floored at its hosts' minimum settable
// power and the reclaimed span flows to the responsive jobs.
func (c *Coordinator) heldRequest(i int, rt *Runtime, round int) Request {
	c.misses[i]++
	var minFloor units.Power
	for _, h := range rt.Job.Hosts {
		minFloor += h.Node.MinLimit()
	}
	if c.misses[i] <= DefaultHoldRounds {
		held := rt.Budget
		if held < minFloor {
			held = minFloor
		}
		c.obs.RequestHold(rt.Job.ID, round, held.Watts(), c.misses[i], false)
		return Request{JobID: rt.Job.ID, Needed: held, Min: held, MaxUseful: held}
	}
	c.obs.RequestHold(rt.Job.ID, round, minFloor.Watts(), c.misses[i], true)
	return Request{JobID: rt.Job.ID, Needed: minFloor, Min: minFloor, MaxUseful: minFloor}
}

// Run executes iters iterations with a protocol round after each one.
// Cancelling ctx stops the run at the next iteration boundary with ctx's
// error.
//
// A protocol round with a missing Request (injected through Faults, or any
// future lossy transport) degrades instead of failing: for up to
// DefaultHoldRounds consecutive misses the job's previous grant is held by
// synthesizing a Request pinned at that grant, and past the horizon the
// job is floored at its minimum settable power so its span flows to the
// jobs still talking. Both decisions are journaled as RequestHold events.
//
// Run is RunOn on a private discrete-event engine; callers that want the
// protocol's rounds on a scheduler they own (to read its clock and
// dispatch count afterwards) hand RunOn one instead.
func (c *Coordinator) Run(ctx context.Context, iters int) (Result, error) {
	return c.RunOn(ctx, engine.New[int](), iters)
}

// iterKind names the protocol's one event kind: a bulk-synchronous
// iteration, whose argument is the iteration index.
const iterKind = "coord_iter"

// RunOn executes the protocol on the given discrete-event scheduler: every
// bulk-synchronous iteration is one event whose virtual time is the
// node-weighted elapsed time so far, so protocol rounds land on the
// virtual timeline at the moments they would occur in the machine room.
// The scheduler's pending events are drained before returning; results are
// identical to Run's.
func (c *Coordinator) RunOn(ctx context.Context, eng *engine.Scheduler[int], iters int) (Result, error) {
	if eng == nil {
		return Result{}, errors.New("coordinator: nil engine")
	}
	if iters <= 0 {
		return Result{}, errors.New("coordinator: iterations must be positive")
	}
	if c.misses == nil {
		c.misses = make([]int, len(c.Runtimes))
	}
	// The runtimes carry the limits they program, but between runs the
	// caller owns the hosts (cmd/obsdump's watchdog clamps them between
	// one-iteration runs), so every run starts from the limits they hold.
	for _, rt := range c.Runtimes {
		if err := rt.ReadLimits(); err != nil {
			return Result{}, fmt.Errorf("coordinator: job %s: %w", rt.Job.ID, err)
		}
	}
	// Record through a virtual-clock view of the sink for the duration of
	// the run: the engine advances its clock before dispatching, so
	// everything recorded inside iteration events (epochs, grants,
	// reallocs, node limit writes) carries its virtual timestamp. The base
	// sink is restored on return.
	if base := c.obs; base != nil {
		vsink := base.WithVClock(eng.Now)
		c.SetObs(vsink)
		if eng.Obs == nil {
			eng.Obs = vsink
		}
		defer c.SetObs(base)
	}
	totalNodes := 0
	for _, rt := range c.Runtimes {
		totalNodes += len(rt.Job.Hosts)
	}
	run := &protocolRun{
		c:          c,
		eng:        eng,
		kind:       eng.Kind(iterKind),
		iters:      iters,
		totalNodes: totalNodes,
		jobElapsed: make([]time.Duration, len(c.Runtimes)),
		res: Result{
			Iterations:   iters,
			IterTimes:    make([]float64, iters),
			GrantHistory: map[string][]units.Power{},
		},
	}
	eng.Schedule(eng.Now(), run.kind, 0)
	if err := eng.Drain(ctx, run); err != nil {
		return Result{}, err
	}
	res := run.res
	for ji, rt := range c.Runtimes {
		w := float64(len(rt.Job.Hosts)) / float64(totalNodes)
		res.Elapsed += time.Duration(w * float64(run.jobElapsed[ji]))
	}
	var sum float64
	for _, t := range res.IterTimes {
		sum += t
	}
	if sum > 0 {
		res.MeanPower = units.Power(res.TotalEnergy.Joules() / sum)
	}
	return res, nil
}

// protocolRun is one RunOn in progress: the dispatcher of its iteration
// events and the result they accumulate.
type protocolRun struct {
	c          *Coordinator
	eng        *engine.Scheduler[int]
	kind       engine.Kind
	iters      int
	totalNodes int
	round      int
	jobElapsed []time.Duration
	res        Result
}

// Dispatch runs bulk-synchronous iteration k: every runtime steps once,
// the protocol round renegotiates grants when jobs share power, and
// iteration k+1 is scheduled at the node-weighted elapsed time.
func (p *protocolRun) Dispatch(now time.Duration, _ engine.Kind, k int) error {
	c, res := p.c, &p.res
	sp := c.obs.StartSpan(c.SpanParent, "coordinator", "coord_iter").SetIter(k)
	defer sp.End()
	var stepElapsed time.Duration
	for ji, rt := range c.Runtimes {
		ir, err := rt.Step(k)
		if err != nil {
			return fmt.Errorf("coordinator: iteration %d job %s: %w", k, rt.Job.ID, err)
		}
		w := float64(len(rt.Job.Hosts)) / float64(p.totalNodes)
		res.IterTimes[k] += w * ir.Elapsed.Seconds()
		res.TotalEnergy += ir.TotalEnergy
		res.TotalFlops += ir.TotalFlops
		p.jobElapsed[ji] += ir.Elapsed
		stepElapsed += time.Duration(w * float64(ir.Elapsed))
	}
	if c.ShareAcrossJobs {
		p.round++
		reqs := make([]Request, len(c.Runtimes))
		for i, rt := range c.Runtimes {
			if c.Faults.RequestDropped(rt.Job.ID, p.round) {
				reqs[i] = c.heldRequest(i, rt, p.round)
				continue
			}
			c.misses[i] = 0
			reqs[i] = rt.request()
		}
		for i, g := range Allocate(c.Budget, reqs) {
			c.obs.Grant(g.JobID, k, g.Budget.Watts())
			c.Runtimes[i].regrant(g, k)
			res.GrantHistory[g.JobID] = append(res.GrantHistory[g.JobID], g.Budget)
		}
	}
	sp.SetValue(stepElapsed.Seconds())
	if k+1 < p.iters {
		p.eng.Schedule(now+stepElapsed, p.kind, k+1)
	}
	return nil
}
