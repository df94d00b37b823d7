package facility

// Dynamic facility budgets. The paper's stack assumes a fixed facility
// envelope; real facilities face time-varying budgets — demand-response
// events, price curves, thermal limits ("Cross-layer Application-aware
// Power/Energy Management", PAPERS.md). This file makes SystemBudget the
// *initial* value of a timeline: scheduled BudgetSteps plus fault-plan
// BudgetDrop emergencies compose into an instantaneous budget the event
// core evaluates at its change points.
//
// When a change leaves the running set's committed power above the new
// budget, the EmergencyPolicy decides the response:
//
//	preempt   victims leave at their last checkpoint boundary and requeue;
//	          they resume from the checkpoint when capacity returns (the
//	          sane response per "Application Checkpoint and Power Study").
//	throttle  nobody leaves; the policy re-splits the smaller budget across
//	          everyone (host caps clamp at their minimum), and admission
//	          stays closed until completions free committed power.
//	kill      victims die outright, all progress lost.
//
// An empty timeline (no steps, no drops) never evaluates differently from
// the constant SystemBudget, schedules no events, and takes the exact
// pre-timeline code paths — a constant-timeline run is byte-identical to
// the seed behavior (TestConstantBudgetTimelineIsByteIdentical).

import (
	"slices"
	"sort"
	"time"

	"powerstack/internal/bsp"
	"powerstack/internal/fault"
	"powerstack/internal/rm"
	"powerstack/internal/units"
)

// BudgetStep is one scheduled change of the facility budget: from At
// onward the scheduled budget is Budget (until a later step overrides it).
// Steps declared at the same instant resolve to the last declaration, the
// same (time, sequence) tie-break the event engine applies everywhere.
type BudgetStep struct {
	// At is the step's effective time relative to run start. A step at 0
	// overrides SystemBudget from the very beginning; steps beyond the
	// horizon never take effect.
	At time.Duration
	// Budget is the scheduled facility budget from At on.
	Budget units.Power
}

// EmergencyPolicy selects the facility's response when a budget change
// leaves the running set's committed power above the new budget.
type EmergencyPolicy string

// The emergency responses.
const (
	// EmergencyPreempt (the default) preempts the most recently started
	// jobs at their last checkpoint boundary until the committed power
	// fits; they requeue and later resume from the checkpoint.
	EmergencyPreempt EmergencyPolicy = "preempt"
	// EmergencyThrottle keeps every job running under proportionally
	// smaller caps; the facility may exceed the budget until completions
	// catch up (counted in BudgetViolationTicks).
	EmergencyThrottle EmergencyPolicy = "throttle"
	// EmergencyKill kills the most recently started jobs outright until
	// the committed power fits; their progress is lost.
	EmergencyKill EmergencyPolicy = "kill"
)

// Valid reports whether p names a known response ("" selects preempt).
func (p EmergencyPolicy) Valid() bool {
	switch p {
	case "", EmergencyPreempt, EmergencyThrottle, EmergencyKill:
		return true
	}
	return false
}

// emergency resolves the configured response, defaulting to preempt.
func (c *Config) emergency() EmergencyPolicy {
	if c.Emergency == "" {
		return EmergencyPreempt
	}
	return c.Emergency
}

// sortedSteps returns the timeline steps stably sorted by time, preserving
// declaration order at equal instants so the last declaration wins.
func (c *Config) sortedSteps() []BudgetStep {
	if len(c.BudgetSteps) == 0 {
		return nil
	}
	steps := make([]BudgetStep, len(c.BudgetSteps))
	copy(steps, c.BudgetSteps)
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].At < steps[j].At })
	return steps
}

// ConstantBudget reports whether the configured facility budget never
// changes during a run: no scheduled BudgetSteps and no fault-plan
// BudgetDrop injection. Such a run schedules no budget event, so it never
// reaches the emergency response (simState.shed, the only reader of
// Emergency): its Result is the same under every EmergencyPolicy. The
// predicate is conservative — a same-value step or a factor-1 drop also
// makes it false.
func (c *Config) ConstantBudget() bool {
	if len(c.BudgetSteps) > 0 {
		return false
	}
	if c.Faults.Empty() {
		return true
	}
	for _, in := range c.Faults.Injections {
		if in.Kind == fault.BudgetDrop {
			return false
		}
	}
	return true
}

// dynamicBudget reports whether the run carries a budget timeline at all:
// a configured one (see ConstantBudget) or live steps an Instance appended.
// Rejected submissions (rm.ErrBudgetInfeasible) are a degradation only
// under a dynamic budget: a job can be infeasible against a temporary drop
// and perfectly feasible an hour later. Under a constant budget the same
// error is a configuration mistake and still fails the run fast, exactly
// as it always has.
func (st *simState) dynamicBudget() bool {
	return len(st.steps) > 0 || !st.cfg.ConstantBudget()
}

// scheduledBudget evaluates the step timeline at elapsed time t: the last
// step at or before t, else SystemBudget.
func (st *simState) scheduledBudget(t time.Duration) units.Power {
	b := st.cfg.SystemBudget
	for _, s := range st.steps {
		if s.At > t {
			break
		}
		b = s.Budget
	}
	return b
}

// budgetAt is the instantaneous facility budget at elapsed time t: the
// scheduled step value scaled by every active fault-plan BudgetDrop window.
func (st *simState) budgetAt(t time.Duration) units.Power {
	b := st.scheduledBudget(t)
	if f := st.cfg.Faults.BudgetFactor(t); f != 1 {
		b = units.Power(float64(b) * f)
	}
	return b
}

// budgetCause classifies a change at time t for the journal: a fault-plan
// drop window opening ("drop") or closing ("recover") at exactly t, else a
// scheduled step ("step").
func (st *simState) budgetCause(t time.Duration) string {
	if st.cfg.Faults.Empty() {
		return "step"
	}
	for _, in := range st.cfg.Faults.Injections {
		if in.Kind != fault.BudgetDrop {
			continue
		}
		if in.At == t {
			return "drop"
		}
		if in.Duration > 0 && in.At+in.Duration == t {
			return "recover"
		}
	}
	return "step"
}

// budgetEdges returns, in order, the distinct instants in (0, Duration]
// at which a configured step or a fault-plan drop window edge lies: the
// only instants a configured timeline can change the budget, whether or
// not the value there actually differs.
func (c *Config) budgetEdges() []time.Duration {
	var edges []time.Duration
	add := func(t time.Duration) {
		if t > 0 && t <= c.Duration && !slices.Contains(edges, t) {
			edges = append(edges, t)
		}
	}
	for _, s := range c.BudgetSteps {
		add(s.At)
	}
	if !c.Faults.Empty() {
		for _, in := range c.Faults.Injections {
			if in.Kind != fault.BudgetDrop {
				continue
			}
			add(in.At)
			if in.Duration > 0 {
				add(in.At + in.Duration)
			}
		}
	}
	slices.Sort(edges)
	return edges
}

// Divergence returns the first instant at which runs of this
// configuration that differ only in Emergency can differ: the earliest
// budget-timeline edge (a configured step or a fault-plan drop window
// edge) in (0, Duration]. The response is read only when a budget change
// strands committed power, and budget changes happen only at edges, so up
// to one nanosecond before it every response dispatches the same events on
// the same state. The instant is conservative — a same-value step counts.
// ok is false when the configured timeline has no edge: then the Result is
// the same under every response (see ConstantBudget).
func (c *Config) Divergence() (at time.Duration, ok bool) {
	edges := c.budgetEdges()
	if len(edges) == 0 {
		return 0, false
	}
	return edges[0], true
}

// budgetChangePoints enumerates the distinct times in (0, horizon] where
// the instantaneous budget actually changes value, in order: the edges of
// the configured timeline where the evaluated budget differs from the
// previous value. A constant timeline (including same-value steps) yields
// no points — and the event core schedules no budget events, keeping such
// runs byte-identical to a run with no timeline at all.
func (st *simState) budgetChangePoints() []time.Duration {
	var out []time.Duration
	cur := st.budgetAt(0)
	for _, t := range st.cfg.budgetEdges() {
		if b := st.budgetAt(t); b != cur {
			out = append(out, t)
			cur = b
		}
	}
	return out
}

// applyBudgetChange moves the live budget to nb at elapsed time now: the
// scheduler's admission budget follows, the change is journaled and
// counted, and — because excursions between telemetry samples would
// otherwise be invisible (see Result.BudgetViolationTicks) — a downward
// change immediately checks the last sampled power against the new budget.
// Returns the previous budget.
func (st *simState) applyBudgetChange(now time.Duration, nb units.Power) (units.Power, error) {
	old := st.curBudget
	st.curBudget = nb
	if err := st.sched.SetBudget(nb); err != nil {
		return old, err
	}
	st.res.BudgetChanges++
	st.obs.BudgetChange(st.budgetCause(now), old.Watts(), nb.Watts())
	if nb < old && len(st.res.Trace) > 0 {
		if last := st.res.Trace[len(st.res.Trace)-1].Power; last > nb {
			st.res.BudgetViolationTicks++
		}
	}
	return old, nil
}

// recordCheckpoint computes and records a leaving job's checkpoint from
// its cumulative progress (length minus remaining), returning the
// checkpointed iteration and the iterations lost since it. With
// CheckpointEvery <= 0 nothing is recorded and everything is lost.
func (st *simState) recordCheckpoint(rec *job, remaining int) (ckpt, lost int) {
	done := rec.Iterations - remaining
	ckpt = bsp.CheckpointFloor(done, st.cfg.CheckpointEvery)
	if ckpt > 0 {
		rec.checkpoint = ckpt
	}
	return ckpt, done - ckpt
}

// startRemaining resolves a starting job's iteration count, restoring
// checkpoint state when one is recorded: the fresh bsp.Job instance is
// fast-forwarded to the checkpoint (phase position included) and the
// resume is journaled and counted.
func (st *simState) startRemaining(rec *job, sj *rm.ScheduledJob) int {
	rem := rec.Iterations
	if ckpt := rec.checkpoint; ckpt > 0 {
		rem -= ckpt
		sj.Job.Restore(bsp.Checkpoint{Iterations: ckpt})
		st.res.Resumed++
		st.obs.JobResumed(sj.Spec.ID, ckpt)
		rec.Resumes++
	}
	return rem
}
