package facility

// The discrete-event facility core. Each concern is its own event stream
// on internal/engine, and the virtual clock jumps between them, so a run
// costs what its events cost rather than what its simulated span does:
//
//	arrival     Poisson arrivals at their exact sampled times (the next
//	            arrival is scheduled when the current one fires — no
//	            per-tick scan).
//	completion  each running job's end, computed from a probed steady-state
//	            iteration time and re-scheduled whenever caps change.
//	fault       the fault plan's Timeline entries (crashes, repairs,
//	            slow-node windows) at their exact onsets.
//	budget      budget-timeline changes (scheduled steps, fault-plan drop
//	            edges) at their exact effective instants.
//	replan      the optional periodic policy replan (ReplanEvery).
//	sample      telemetry on its own cadence (Tick).
//
// Between events a job's progress is analytic: one real iteration probes
// the operating point after every (re)plan, and bsp.CreditSteadyState
// credits the repetitions the probe implies. Crediting is lazy — a job
// settles only when its operating point or host set is about to change,
// when it leaves the active set, and at telemetry samples (the only
// readers of the counters); see DESIGN.md, "Settlement invariant".
// Determinism is inherited from the engine's (time, sequence) dispatch
// order — two runs with the same seed dispatch the same events in the same
// order.

import (
	"math"
	"time"

	"powerstack/internal/bsp"
	"powerstack/internal/engine"
	"powerstack/internal/fault"
	"powerstack/internal/rm"
	"powerstack/internal/telemetry"
	"powerstack/internal/units"
)

// evJob is one running job under the event core.
type evJob struct {
	sj        *rm.ScheduledJob
	remaining int       // iterations still to run (including uncredited)
	submitted time.Time // absolute submit time
	started   time.Time // absolute start time

	// iter is the probed steady-state iteration at the current operating
	// point; credited is the virtual time the job's accounting has reached
	// (energy and iteration counters are settled up to it), and steady the
	// repetitions of iter credited so far — the base the next telescoping
	// credit starts from.
	iter     bsp.IterationResult
	credited time.Duration
	steady   int
	// comp is the pending completion event (0 when none).
	comp engine.EventID
}

// eventSim runs one facility simulation on the discrete-event engine.
type eventSim struct {
	*simState
	eng    *engine.Scheduler
	active []*evJob

	// Node-utilization accounting is a time integral here, not a per-tick
	// census: busyIntegral accrues busyNodes over the span since busyAt
	// every time the active set is about to change.
	busyNodes    int
	busyAt       time.Duration
	busyIntegral float64

	// lastSample is the previous telemetry sample's virtual time: energy
	// integrates over the actual gap, which is Tick everywhere except the
	// final sample of a non-cadence-multiple horizon.
	lastSample time.Duration
}

func newEventCore(st *simState) *eventSim {
	s := &eventSim{simState: st, eng: engine.New()}
	st.mgr.BeforeSwap = s.settleJob
	return s
}

// prime installs the virtual clock and schedules every event stream the
// configuration implies.
func (s *eventSim) prime() error {
	st := s.simState
	// The engine advances its clock before dispatching a handler, so its
	// Now is the correct virtual timestamp for everything recorded inside
	// handlers (and for the engine's own dispatch events).
	st.vclock = s.eng.Now
	s.eng.Obs = st.obs

	// Fault timeline: every crash/repair/slow transition at its exact
	// onset. Onsets at or before zero do not fire (At == 0 slow nodes are
	// already armed by Plan.Arm in setup).
	for _, tt := range st.cfg.Faults.Timeline() {
		if tt.At <= 0 || tt.At > st.horizon {
			continue
		}
		tr := tt.Transition
		switch tr.Kind {
		case fault.NodeCrash:
			s.eng.Schedule(tt.At, "fault_crash", func(now time.Duration) error {
				return s.onCrash(tr.Node, now)
			})
		case fault.NodeRepair:
			s.eng.Schedule(tt.At, "fault_repair", func(now time.Duration) error {
				return s.onRepair(tr.Node, now)
			})
		case fault.SlowNode:
			s.eng.Schedule(tt.At, "fault_slow", func(now time.Duration) error {
				return s.onSlow(tr.Node, tr.Factor, now)
			})
		}
	}

	// Budget-timeline changes at their exact effective instants. Only
	// points where the evaluated budget actually changes value are
	// scheduled — a constant timeline (empty, or same-value steps)
	// schedules nothing, so such a run dispatches exactly the same event
	// sequence as one with no timeline at all. Scheduling these before the
	// periodic replan/sample chains means a change coincident with a
	// sample applies first (lower sequence number), so the sample is
	// judged against the budget in force from that instant on.
	for _, bt := range st.budgetChangePoints() {
		s.eng.Schedule(bt, "budget", s.onBudget)
	}

	// Periodic replans, when configured.
	if re := st.cfg.ReplanEvery; re > 0 {
		s.eng.Every(re, re, st.horizon, "replan", s.onReplan)
	}

	// Telemetry sampling on its own cadence, plus a final sample exactly
	// at the horizon when the horizon is not a cadence multiple, so the
	// tail of the run is observed and its energy integrated.
	tick := st.cfg.Tick
	s.eng.Every(tick, tick, st.horizon, "sample", s.onSample)
	if st.horizon%tick != 0 {
		s.eng.Schedule(st.horizon, "sample", s.onSample)
	}

	// The arrival chain: each arrival schedules the next. Service-mode
	// instances (DisableArrivals) run on injections alone.
	if !st.cfg.DisableArrivals {
		if first := expDuration(st.rng, st.cfg.MeanInterarrival); first <= st.horizon {
			s.eng.Schedule(first, "arrival", s.onArrival)
		}
	}
	return nil
}

// settle closes accounting at the current virtual time: jobs still
// running keep their uncredited tail (their completions lie beyond the
// end of the run), but the busy-node integral closes here.
func (s *eventSim) settle() {
	now := s.eng.Now()
	s.accrue(now)
	s.res.EventsDispatched = int(s.eng.Dispatched())
	if now > 0 && len(s.cfg.Nodes) > 0 {
		s.res.MeanNodeUtilization = s.busyIntegral / (float64(now) * float64(len(s.cfg.Nodes)))
	}
}

func (s *eventSim) running() []RunningJob {
	now := s.eng.Now()
	out := make([]RunningJob, 0, len(s.active))
	for _, r := range s.active {
		out = append(out, RunningJob{
			ID:        r.sj.Spec.ID,
			Tenant:    r.sj.Spec.Tenant,
			Nodes:     r.sj.Spec.Nodes,
			Remaining: r.remaining - r.due(now),
			StartedAt: r.started.Sub(s.simState.start),
		})
	}
	return out
}

// injectNow enqueues a submission at the current virtual instant and
// reconciles immediately — the job can start right now if it fits.
func (s *eventSim) injectNow(sub Submission) (string, error) {
	now := s.eng.Now()
	id, err := s.submitInjected(sub, now)
	if err != nil {
		return id, err
	}
	return id, s.reconcile(now, false, false)
}

// injectAt schedules a deferred submission on the virtual timeline;
// admission errors at fire time degrade to journaled rejections (the
// submitter is long gone).
func (s *eventSim) injectAt(at time.Duration, sub Submission) {
	s.eng.Schedule(at, "inject", func(now time.Duration) error {
		if _, err := s.submitInjected(sub, now); err != nil {
			s.rejectInjected(sub.ID, sub, now)
			return nil
		}
		return s.reconcile(now, false, false)
	})
}

// budgetPoint schedules a budget-change event for a live timeline append
// (Instance.ScheduleBudget) — the configured points were scheduled by
// prime; this covers points added after it.
func (s *eventSim) budgetPoint(at time.Duration) {
	s.eng.Schedule(at, "budget", s.onBudget)
}

// policySwapped replans the running set under the new policy immediately
// and re-aims completions at the moved operating points.
func (s *eventSim) policySwapped() error {
	return s.reconcile(s.eng.Now(), true, false)
}

// accrue closes the busy-node integral up to now. Call it before any
// change to the active set.
func (s *eventSim) accrue(now time.Duration) {
	if now > s.busyAt {
		s.busyIntegral += float64(s.busyNodes) * float64(now-s.busyAt)
		s.busyAt = now
	}
}

// recount refreshes the busy-node census after the active set changed.
func (s *eventSim) recount() {
	busy := 0
	for _, r := range s.active {
		busy += r.sj.Spec.Nodes
	}
	s.busyNodes = busy
}

// due returns how many whole steady-state iterations of a job have elapsed
// since its accounting last settled, capped at its remaining iterations.
// Reporting paths subtract it from remaining to read progress at now
// without crediting anything.
func (r *evJob) due(now time.Duration) int {
	if r.iter.Elapsed <= 0 || now <= r.credited || r.remaining <= 0 {
		return 0
	}
	return min(int((now-r.credited)/r.iter.Elapsed), r.remaining)
}

// advance settles a job's analytic progress up to now: every whole
// iteration that fits since the last settlement is credited at the probed
// operating point. The fractional remainder stays uncredited — it
// completes later, possibly at a different operating point.
func (s *eventSim) advance(r *evJob, now time.Duration) {
	k := r.due(now)
	r.credit(k)
	s.book(r, k)
}

// credit programs k steady-state iterations into the job's host counters:
// the half of a settlement that touches only the job's own hosts, so it may
// run on a worker.
func (r *evJob) credit(k int) {
	if k > 0 {
		r.sj.Job.CreditSteadyState(r.iter, r.steady, r.steady+k)
	}
}

// book records k credited iterations in the job's accounting and marks its
// hosts for the next sample: the serial half of a settlement.
func (s *eventSim) book(r *evJob, k int) {
	if k <= 0 {
		return
	}
	s.markJobDirty(r.sj)
	r.steady += k
	r.remaining -= k
	r.credited += time.Duration(k) * r.iter.Elapsed
}

// advanceAll settles every active job up to now — the telemetry sample's
// prelude, so the energy counters reflect every iteration completed by now.
// The credits fan out over the worker pool (jobs own disjoint hosts, and
// counter adds commute modulo the register width); the bookkeeping then
// runs serially in active-list order.
func (s *eventSim) advanceAll(now time.Duration) {
	s.pool.run(len(s.active), func(i, _ int) {
		r := s.active[i]
		r.credit(r.due(now))
	})
	for _, r := range s.active {
		s.book(r, r.due(now))
	}
}

// settleJob settles one scheduled job at the current virtual time — the
// manager's hook before a spare replaces one of its hosts.
func (s *eventSim) settleJob(sj *rm.ScheduledJob) {
	for _, r := range s.active {
		if r.sj == sj {
			s.advance(r, s.eng.Now())
			return
		}
	}
}

// probe resolves a job's current operating point with one real iteration
// (OS noise and all), counts it, and re-schedules the job's completion
// from the new steady-state iteration time.
func (s *eventSim) probe(r *evJob, now time.Duration) error {
	ir, err := r.sj.Job.RunIteration()
	if err != nil {
		return err
	}
	k := r.due(now)
	r.credit(k)
	s.applyProbe(r, ir, k, now)
	return nil
}

// applyProbe installs a probed iteration whose job has just been credited
// settled iterations at its outgoing operating point. The measurement and
// the credit may have run earlier on a pipeline worker (each job's probe
// draws from its own RNG and touches only its own hosts, so where it ran is
// unobservable); the bookkeeping and completion re-schedule always happen
// here, on the engine goroutine, in the deterministic merge order. Facility
// jobs carry no phase schedule, so crediting after the probe iteration has
// run programs the same counters as before it.
func (s *eventSim) applyProbe(r *evJob, ir bsp.IterationResult, settled int, now time.Duration) {
	s.book(r, settled)
	s.markJobDirty(r.sj)
	r.iter = ir
	r.steady = 0
	r.remaining--
	r.credited = now + ir.Elapsed
	s.scheduleCompletion(r)
}

// scheduleCompletion (re)schedules a job's completion event at the time
// its remaining iterations will have elapsed at the probed rate. A due
// time past the horizon never fires, so the product saturates rather than
// wrapping: an overflowed (negative) due time would clamp to now, credit
// nothing, and re-aim at the same instant forever.
func (s *eventSim) scheduleCompletion(r *evJob) {
	if r.comp != 0 {
		s.eng.Cancel(r.comp)
	}
	due := r.credited
	if r.remaining > 0 && r.iter.Elapsed > 0 {
		due = satAdd(due, satMul(r.remaining, r.iter.Elapsed))
	}
	r.comp = s.eng.Schedule(due, "completion", func(now time.Duration) error {
		return s.onComplete(r, now)
	})
}

// satMul returns n·d for n, d > 0, saturating at the largest Duration.
func satMul(n int, d time.Duration) time.Duration {
	if time.Duration(n) > math.MaxInt64/d {
		return math.MaxInt64
	}
	return time.Duration(n) * d
}

// satAdd returns a+b for non-negative a and b, saturating at the largest
// Duration.
func satAdd(a, b time.Duration) time.Duration {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// removeActive drops a job from the active set, cancelling its pending
// completion.
func (s *eventSim) removeActive(victim *evJob) {
	if victim.comp != 0 {
		s.eng.Cancel(victim.comp)
		victim.comp = 0
	}
	for i, r := range s.active {
		if r == victim {
			s.active = append(s.active[:i], s.active[i+1:]...)
			return
		}
	}
}

// reconcile is the shared tail of every state-changing event: dispatch
// whatever now fits, replan when the running set changed (mutated, or jobs
// just started), and re-probe operating points where caps or speeds may
// have moved — after a replan the fresh jobs and those whose caps were
// rewritten, otherwise every job when reprobeAll is set (a slow window
// moved iteration times without moving caps). Jobs are not settled here: a
// re-probe settles its own job first, and the rest keep crediting at their
// unchanged operating points.
func (s *eventSim) reconcile(now time.Duration, mutated, reprobeAll bool) error {
	s.accrue(now)
	startedNow, err := s.sched.Dispatch(s.cfg.Seed + uint64(s.jobSeq))
	if err != nil {
		return err
	}
	var fresh []*evJob
	for _, sj := range startedNow {
		at := s.start.Add(now)
		r := &evJob{
			sj:        sj,
			remaining: s.startRemaining(sj),
			submitted: s.submitTimes[sj.Spec.ID],
			started:   at,
		}
		s.active = append(s.active, r)
		fresh = append(fresh, r)
		s.res.Started++
		s.res.MeanQueueWait += at.Sub(r.submitted)
		s.noteStarted(sj.Spec.ID, now)
	}
	if mutated || len(startedNow) > 0 {
		if err := s.replanRound(func() error { return s.replanPipeline(now, fresh) }); err != nil {
			return err
		}
	} else if reprobeAll {
		for _, r := range s.active {
			if err := s.probe(r, now); err != nil {
				return err
			}
		}
	}
	s.recount()
	return nil
}

// onArrival submits one Poisson arrival and schedules the next.
func (s *eventSim) onArrival(now time.Duration) error {
	gap, err := s.submitArrival(s.start.Add(now))
	if err != nil {
		return err
	}
	if next := now + gap; next <= s.horizon {
		s.eng.Schedule(next, "arrival", s.onArrival)
	}
	return s.reconcile(now, false, false)
}

// onComplete finishes a job whose analytically scheduled end has arrived.
func (s *eventSim) onComplete(r *evJob, now time.Duration) error {
	r.comp = 0
	s.accrue(now)
	s.advance(r, now)
	if r.remaining > 0 {
		// The operating point moved under the estimate; re-aim.
		s.scheduleCompletion(r)
		return nil
	}
	if err := s.sched.Complete(r.sj); err != nil {
		return err
	}
	s.res.Completed++
	s.obs.JobFinished(r.sj.Spec.ID,
		r.started.Sub(r.submitted).Seconds(),
		s.start.Add(now).Sub(r.submitted).Seconds())
	s.noteCompleted(r.sj.Spec.ID, now)
	s.removeActive(r)
	return s.reconcile(now, true, false)
}

// onCrash takes a node down: drain it, requeue the job that held it, and
// replan around the loss.
func (s *eventSim) onCrash(nodeID string, now time.Duration) error {
	n, ok := s.nodeByID[nodeID]
	if !ok {
		return nil
	}
	s.accrue(now)
	fault.Crash(n)
	s.markNodeDirty(n)
	s.obs.FaultInjected(string(fault.NodeCrash), nodeID, "", 0)
	holder, held := s.mgr.Drain(nodeID, "crash")
	if held {
		s.markJobDirty(holder)
		for _, r := range s.active {
			if r.sj == holder {
				s.advance(r, now) // credits are privileged: the crash does not block them
				s.recordCheckpoint(holder.Spec.ID, r.remaining)
				s.removeActive(r)
				break
			}
		}
		if err := s.sched.Requeue(holder); err != nil {
			return err
		}
		s.res.Requeued++
		s.noteRequeued(holder.Spec.ID)
	}
	return s.reconcile(now, true, false)
}

// onRepair brings a crashed node back; the freed capacity may start queued
// jobs at the next dispatch.
func (s *eventSim) onRepair(nodeID string, now time.Duration) error {
	n, ok := s.nodeByID[nodeID]
	if !ok {
		return nil
	}
	s.accrue(now)
	fault.Repair(n)
	s.markNodeDirty(n)
	s.mgr.Rejoin(nodeID)
	return s.reconcile(now, false, false)
}

// onSlow opens or closes a slow-node window. Caps do not move (a
// degradation is not a replan trigger), but iteration times did, so every
// operating point is re-probed and completions re-aimed.
func (s *eventSim) onSlow(nodeID string, factor float64, now time.Duration) error {
	n, ok := s.nodeByID[nodeID]
	if !ok {
		return nil
	}
	s.accrue(now)
	n.SetDegradation(factor)
	s.obs.FaultInjected(string(fault.SlowNode), nodeID, "", factor)
	return s.reconcile(now, false, true)
}

// onReplan is the periodic policy replan event.
func (s *eventSim) onReplan(now time.Duration) error {
	return s.reconcile(now, true, false)
}

// onSample reads the telemetry hierarchy's dirty set. Jobs settle first so
// the energy counters reflect every iteration completed by now. The sample
// is judged against the budget in force (curBudget), and energy integrates
// over the actual gap since the previous sample.
func (s *eventSim) onSample(now time.Duration) error {
	s.markDropoutStarts(now)
	s.advanceAll(now)
	if testMarkAllDirty {
		s.root.MarkAllDirty()
	}
	at := s.start.Add(now)
	p := s.root.SampleDirty(at)
	s.res.Trace = append(s.res.Trace, telemetry.Sample{Time: at, Power: p})
	s.res.TotalEnergy += units.EnergyOver(p, now-s.lastSample)
	s.lastSample = now
	if p > s.curBudget {
		s.res.BudgetViolationTicks++
	}
	return nil
}

// onBudget applies a budget-timeline change: settle progress, move the
// admission budget, shed newest-started jobs if the committed power no
// longer fits (per the emergency policy), and re-split the new budget
// across the survivors.
func (s *eventSim) onBudget(now time.Duration) error {
	nb := s.budgetAt(now)
	if nb == s.curBudget {
		return nil
	}
	s.accrue(now)
	sp := s.obs.StartSpan(s.spanCtx, "facility", "budget_change").SetValue(nb.Watts())
	old, err := s.applyBudgetChange(now, nb)
	if err != nil {
		sp.End()
		return err
	}
	if nb < old && s.sched.CommittedPower() > nb {
		if err := s.shed(nb, now); err != nil {
			sp.End()
			return err
		}
	}
	sp.End()
	return s.reconcile(now, true, false)
}

// shed is the event core's emergency response: shed running jobs, newest
// started first (the least sunk progress), until the committed power fits
// nb. Preempt checkpoints and requeues; kill aborts outright; throttle
// sheds nothing and lets the policy squeeze everyone under the new budget.
func (s *eventSim) shed(nb units.Power, now time.Duration) error {
	pol := s.cfg.emergency()
	if pol == EmergencyThrottle {
		return nil
	}
	for s.sched.CommittedPower() > nb && len(s.active) > 0 {
		r := s.active[len(s.active)-1] // start-ordered: newest is last
		id := r.sj.Spec.ID
		s.advance(r, now)
		s.removeActive(r)
		if pol == EmergencyKill {
			if err := s.sched.Abort(r.sj); err != nil {
				return err
			}
			delete(s.checkpoints, id)
			s.res.Killed++
			s.obs.JobKilled(id, s.lengths[id]-r.remaining)
			s.noteKilled(id, now)
			continue
		}
		ckpt, lost := s.recordCheckpoint(id, r.remaining)
		if err := s.sched.Requeue(r.sj); err != nil {
			return err
		}
		s.res.Preempted++
		s.obs.JobPreempted(id, ckpt, lost)
		s.notePreempted(id)
	}
	return nil
}
