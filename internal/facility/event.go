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
//	sample      telemetry on its own cadence (Tick).
//
// Every event is data (engine.Scheduler[evArg]): its kind and one
// argument, dispatched by simState.Dispatch through one switch. Nothing in
// the queue captures the simulation state, so Instance.Fork copies the
// queue with the rest of the core.
//
// The running set is one list, active, kept index for index with the
// manager's schedule (mgr.Jobs()), so a replan's request index addresses
// both. Between events a job's progress is analytic: one real iteration probes
// the operating point after every (re)plan, and bsp.CreditSteadyState
// credits the repetitions the probe implies. Crediting is lazy — a job
// settles only when its operating point or host set is about to change,
// when it leaves the active set, and at telemetry samples (the only
// readers of the counters); see DESIGN.md, "Settlement invariant".
// Determinism is inherited from the engine's (time, sequence) dispatch
// order — two runs with the same seed dispatch the same events in the same
// order.

import (
	"errors"
	"fmt"
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
	rec       *job          // the job's record, whose run points back here
	remaining int           // iterations still to run (including uncredited)
	started   time.Duration // virtual offset of this start

	// iter is the probed steady-state iteration at the current operating
	// point; credited is the virtual time the job's accounting has reached
	// (energy and iteration counters are settled up to it), and steady the
	// repetitions of iter credited so far — the base the next telescoping
	// credit starts from.
	iter     bsp.IterationResult
	credited time.Duration
	steady   int
	// bufs holds the per-host storage of two probes: iter's PerHost
	// aliases bufs[cur], and measure writes the next probe into the other
	// one, so the credit at the outgoing point still reads iter. Only a
	// successful applyProbe flips cur.
	bufs [2]bsp.IterationScratch
	cur  int
	// comp is the pending completion event (0 when none).
	comp engine.EventID
}

// The facility's event kinds, registered with its engine in this order.
const (
	evArrival engine.Kind = iota
	evCompletion
	evInject
	evSample
	evBudget
	evCrash
	evRepair
	evSlow
)

// eventKinds names the kinds for observability (engine.events.<name>).
var eventKinds = [...]string{
	evArrival:    "arrival",
	evCompletion: "completion",
	evInject:     "inject",
	evSample:     "sample",
	evBudget:     "budget",
	evCrash:      "fault_crash",
	evRepair:     "fault_repair",
	evSlow:       "fault_slow",
}

// evArg is a facility event's one argument: the job record of a
// completion, or an index — into deferred for an inject event, into
// timeline for a fault event. Arrivals, samples and budget changes carry
// none.
type evArg struct {
	rec *job
	i   int
}

// Dispatch runs one due event: the engine's only consumer callback.
func (st *simState) Dispatch(now time.Duration, kind engine.Kind, a evArg) error {
	switch kind {
	case evArrival:
		return st.onArrival(now)
	case evCompletion:
		return st.onComplete(a.rec.run, now)
	case evInject:
		return st.onInject(a.i, now)
	case evSample:
		return st.onSample(now)
	case evBudget:
		return st.onBudget(now)
	case evCrash:
		return st.onCrash(st.timeline[a.i].Node, now)
	case evRepair:
		return st.onRepair(st.timeline[a.i].Node, now)
	case evSlow:
		tr := st.timeline[a.i].Transition
		return st.onSlow(tr.Node, tr.Factor, now)
	}
	return fmt.Errorf("facility: unknown event kind %d", kind)
}

// hostFault is a running job whose probe failed on one of its hosts.
type hostFault struct {
	r    *evJob
	node string
}

// prime schedules every event stream the configuration implies.
func (st *simState) prime() {
	// Fault timeline: every crash/repair/slow transition at its exact
	// onset. Onsets at or before zero do not fire (At == 0 slow nodes are
	// already armed by Plan.Arm in setup).
	st.timeline = st.cfg.Faults.Timeline()
	for i, tt := range st.timeline {
		if tt.At <= 0 || tt.At > st.horizon {
			continue
		}
		switch tt.Kind {
		case fault.NodeCrash:
			st.eng.Schedule(tt.At, evCrash, evArg{i: i})
		case fault.NodeRepair:
			st.eng.Schedule(tt.At, evRepair, evArg{i: i})
		case fault.SlowNode:
			st.eng.Schedule(tt.At, evSlow, evArg{i: i})
		}
	}

	// Budget-timeline changes at their exact effective instants. Only
	// points where the evaluated budget actually changes value are
	// scheduled — a constant timeline (empty, or same-value steps)
	// schedules nothing, so such a run dispatches exactly the same event
	// sequence as one with no timeline at all. Scheduling these before the
	// periodic sample chain means a change coincident with a
	// sample applies first (lower sequence number), so the sample is
	// judged against the budget in force from that instant on.
	for _, bt := range st.budgetChangePoints() {
		st.eng.Schedule(bt, evBudget, evArg{})
	}

	// Telemetry sampling on its own cadence, plus a final sample exactly
	// at the horizon when the horizon is not a cadence multiple, so the
	// tail of the run is observed and its energy integrated.
	tick := st.cfg.Tick
	st.eng.Every(tick, tick, st.horizon, evSample, evArg{})
	if st.horizon%tick != 0 {
		st.eng.Schedule(st.horizon, evSample, evArg{})
	}

	// The arrival chain: each arrival schedules the next. Service-mode
	// instances (DisableArrivals) run on injections alone.
	if !st.cfg.DisableArrivals {
		if first := expDuration(st.rng, st.cfg.MeanInterarrival); first <= st.horizon {
			st.eng.Schedule(first, evArrival, evArg{})
		}
	}
}

// settle closes accounting at the current virtual time: jobs still
// running keep their uncredited tail (their completions lie beyond the
// end of the run), but the busy-node integral closes here.
func (st *simState) settle() {
	now := st.eng.Now()
	st.accrue(now)
	st.res.EventsDispatched = int(st.eng.Dispatched())
	if now > 0 && len(st.cfg.Nodes) > 0 {
		st.res.MeanNodeUtilization = st.busyIntegral / (float64(now) * float64(len(st.cfg.Nodes)))
	}
}

func (st *simState) running() []RunningJob {
	now := st.eng.Now()
	out := make([]RunningJob, 0, len(st.active))
	for _, r := range st.active {
		out = append(out, RunningJob{
			ID:        r.sj.Spec.ID,
			Tenant:    r.sj.Spec.Tenant,
			Nodes:     r.sj.Spec.Nodes,
			Remaining: r.remaining - r.due(now),
			StartedAt: r.started,
		})
	}
	return out
}

// accrue closes the busy-node integral up to now. Call it before any
// change to the active set.
func (st *simState) accrue(now time.Duration) {
	if now > st.busyAt {
		st.busyIntegral += float64(st.busyNodes) * float64(now-st.busyAt)
		st.busyAt = now
	}
}

// recount refreshes the busy-node census after the active set changed.
func (st *simState) recount() {
	busy := 0
	for _, r := range st.active {
		busy += r.sj.Spec.Nodes
	}
	st.busyNodes = busy
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
func (st *simState) advance(r *evJob, now time.Duration) {
	k := r.due(now)
	r.credit(k)
	st.book(r, k)
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
func (st *simState) book(r *evJob, k int) {
	if k <= 0 {
		return
	}
	st.markJobDirty(r.sj)
	r.steady += k
	r.remaining -= k
	r.credited += time.Duration(k) * r.iter.Elapsed
}

// advanceAll settles every active job up to now — the telemetry sample's
// prelude, so the energy counters reflect every iteration completed by now.
// The credits fan out over the worker pool (jobs own disjoint hosts, and
// counter adds commute modulo the register width); the bookkeeping then
// runs serially in active-list order.
func (st *simState) advanceAll(now time.Duration) {
	st.pool.run(len(st.active), func(i, _ int) {
		r := st.active[i]
		r.credit(r.due(now))
	})
	for _, r := range st.active {
		st.book(r, r.due(now))
	}
}

// settleJob settles one scheduled job at the current virtual time — the
// manager's hook before a spare replaces one of its hosts.
func (st *simState) settleJob(sj *rm.ScheduledJob) {
	if r := st.jobs[sj.Spec.ID].run; r != nil {
		st.advance(r, st.eng.Now())
	}
}

// measure is the half of a probe that touches only the job's own hosts, so
// it may run on a worker: one real iteration resolves the current
// operating point (OS noise and all, drawn from the job's private RNG),
// then the iterations due at the outgoing point are credited. Facility jobs
// carry no phase schedule, so crediting after the probe iteration has run
// programs the same counters as before it. It returns the measurement,
// which aliases the buffer iter does not, and the credited count for
// applyProbe.
func (r *evJob) measure(now time.Duration) (bsp.IterationResult, int, error) {
	next := &r.bufs[1-r.cur]
	if testFreshProbeBuffers {
		*next = bsp.IterationScratch{}
	}
	ir, err := r.sj.Job.RunIterationInto(next)
	if err != nil {
		return ir, 0, err
	}
	k := r.due(now)
	r.credit(k)
	return ir, k, nil
}

// probe measures and applies one job's operating point on the engine
// goroutine.
func (st *simState) probe(r *evJob, now time.Duration) error {
	ir, settled, err := r.measure(now)
	return st.applyProbe(r, ir, settled, err, now)
}

// applyProbe is the serial half of a probe: it books the iterations
// measure credited, installs the measured iteration, and re-schedules the
// job's completion from it — always on the engine goroutine, in the
// deterministic merge order, wherever measure ran. A measurement that
// failed on a host (bsp.HostError: the node's power limit could not be
// read) does not fail the event: the job joins readFaults, which reconcile
// drains and requeues once every probe of the round has been applied.
func (st *simState) applyProbe(r *evJob, ir bsp.IterationResult, settled int, err error, now time.Duration) error {
	if err != nil {
		var he *bsp.HostError
		if !errors.As(err, &he) {
			return err
		}
		st.readFaults = append(st.readFaults, hostFault{r: r, node: he.Node.ID})
		return nil
	}
	st.book(r, settled)
	st.markJobDirty(r.sj)
	r.iter, r.cur = ir, 1-r.cur
	r.steady = 0
	r.remaining--
	r.credited = now + ir.Elapsed
	st.scheduleCompletion(r)
	return nil
}

// scheduleCompletion (re)schedules a job's completion event at the time
// its remaining iterations will have elapsed at the probed rate. A due
// time past the horizon never fires, so the product saturates rather than
// wrapping: an overflowed (negative) due time would clamp to now, credit
// nothing, and re-aim at the same instant forever.
func (st *simState) scheduleCompletion(r *evJob) {
	if r.comp != 0 {
		st.eng.Cancel(r.comp)
	}
	due := r.credited
	if r.remaining > 0 && r.iter.Elapsed > 0 {
		due = satAdd(due, satMul(r.remaining, r.iter.Elapsed))
	}
	r.comp = st.eng.Schedule(due, evCompletion, evArg{rec: r.rec})
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
func (st *simState) removeActive(victim *evJob) {
	if victim.comp != 0 {
		st.eng.Cancel(victim.comp)
		victim.comp = 0
	}
	victim.rec.run = nil
	for i, r := range st.active {
		if r == victim {
			st.active = append(st.active[:i], st.active[i+1:]...)
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
// unchanged operating points. A job whose probe failed on a host loses
// that host: the node is drained as "read_fault", the job requeued, and
// the running set reconciled once more.
func (st *simState) reconcile(now time.Duration, mutated, reprobeAll bool) error {
	st.accrue(now)
	st.readFaults = st.readFaults[:0]
	startedNow, err := st.sched.Dispatch(st.cfg.Seed + uint64(st.jobSeq))
	if err != nil {
		return err
	}
	for _, sj := range startedNow {
		rec := st.jobs[sj.Spec.ID]
		r := &evJob{sj: sj, rec: rec, remaining: st.startRemaining(rec, sj), started: now}
		rec.run = r
		st.active = append(st.active, r)
		st.res.Started++
		st.res.MeanQueueWait += now - rec.SubmittedAt
		// The first start sets StartedAt; later restarts keep it.
		if rec.StartedAt == 0 && rec.Preemptions == 0 && rec.Requeues == 0 {
			rec.StartedAt = now
		}
		rec.State = JobRunning
	}
	if mutated || len(startedNow) > 0 {
		if err := st.replanRound(func() error { return st.replanPipeline(now, len(startedNow)) }); err != nil {
			return err
		}
	} else if reprobeAll {
		for _, r := range st.active {
			if err := st.probe(r, now); err != nil {
				return err
			}
		}
	}
	st.recount()
	if len(st.readFaults) == 0 {
		return nil
	}
	for _, f := range st.readFaults {
		st.mgr.Drain(f.node, "read_fault")
		if err := st.requeue(f.r, now); err != nil {
			return err
		}
	}
	return st.reconcile(now, true, false)
}

// requeue returns a running job to the head of the queue after one of its
// hosts was drained. Its progress is settled first (credits are
// privileged: the drained host does not block them) and checkpointed.
func (st *simState) requeue(r *evJob, now time.Duration) error {
	st.markJobDirty(r.sj)
	st.advance(r, now)
	st.recordCheckpoint(r.rec, r.remaining)
	st.removeActive(r)
	if err := st.sched.Requeue(r.sj); err != nil {
		return err
	}
	st.res.Requeued++
	r.rec.State = JobQueued
	r.rec.Requeues++
	return nil
}

// onArrival submits one Poisson arrival and schedules the next.
func (st *simState) onArrival(now time.Duration) error {
	gap, err := st.submitArrival(now)
	if err != nil {
		return err
	}
	if next := now + gap; next <= st.horizon {
		st.eng.Schedule(next, evArrival, evArg{})
	}
	return st.reconcile(now, false, false)
}

// onComplete finishes a job whose analytically scheduled end has arrived.
func (st *simState) onComplete(r *evJob, now time.Duration) error {
	r.comp = 0
	st.accrue(now)
	st.advance(r, now)
	if r.remaining > 0 {
		// The operating point moved under the estimate; re-aim.
		st.scheduleCompletion(r)
		return nil
	}
	if err := st.sched.Complete(r.sj); err != nil {
		return err
	}
	st.res.Completed++
	st.obs.JobFinished(r.sj.Spec.ID,
		(r.started - r.rec.SubmittedAt).Seconds(),
		(now - r.rec.SubmittedAt).Seconds())
	r.rec.State = JobCompleted
	r.rec.FinishedAt = now
	r.rec.Remaining = 0
	st.removeActive(r)
	return st.reconcile(now, true, false)
}

// onCrash takes a node down: drain it, requeue the job that held it, and
// replan around the loss.
func (st *simState) onCrash(nodeID string, now time.Duration) error {
	n, ok := st.nodeByID[nodeID]
	if !ok {
		return nil
	}
	st.accrue(now)
	fault.Crash(n)
	st.markNodeDirty(n)
	st.obs.FaultInjected(string(fault.NodeCrash), nodeID, "", 0)
	if holder, held := st.mgr.Drain(nodeID, "crash"); held {
		if err := st.requeue(st.jobs[holder.Spec.ID].run, now); err != nil {
			return err
		}
	}
	return st.reconcile(now, true, false)
}

// onRepair brings a crashed node back; the freed capacity may start queued
// jobs at the next dispatch.
func (st *simState) onRepair(nodeID string, now time.Duration) error {
	n, ok := st.nodeByID[nodeID]
	if !ok {
		return nil
	}
	st.accrue(now)
	fault.Repair(n)
	st.markNodeDirty(n)
	st.mgr.Rejoin(nodeID)
	return st.reconcile(now, false, false)
}

// onSlow opens or closes a slow-node window. Caps do not move (a
// degradation is not a replan trigger), but iteration times did, so every
// operating point is re-probed and completions re-aimed.
func (st *simState) onSlow(nodeID string, factor float64, now time.Duration) error {
	n, ok := st.nodeByID[nodeID]
	if !ok {
		return nil
	}
	st.accrue(now)
	n.SetDegradation(factor)
	st.obs.FaultInjected(string(fault.SlowNode), nodeID, "", factor)
	return st.reconcile(now, false, true)
}

// onSample reads the telemetry hierarchy's dirty set. Jobs settle first so
// the energy counters reflect every iteration completed by now. The sample
// is judged against the budget in force (curBudget), and energy integrates
// over the actual gap since the previous sample.
func (st *simState) onSample(now time.Duration) error {
	st.markDropoutStarts(now)
	st.advanceAll(now)
	if testMarkAllDirty {
		st.root.MarkAllDirty()
	}
	at := st.start.Add(now)
	p := st.root.SampleDirty(at)
	st.res.Trace = append(st.res.Trace, telemetry.Sample{Time: at, Power: p})
	st.res.TotalEnergy += units.EnergyOver(p, now-st.lastSample)
	st.lastSample = now
	if p > st.curBudget {
		st.res.BudgetViolationTicks++
	}
	return nil
}

// onBudget applies a budget-timeline change: settle progress, move the
// admission budget, shed newest-started jobs if the committed power no
// longer fits (per the emergency policy), and re-split the new budget
// across the survivors.
func (st *simState) onBudget(now time.Duration) error {
	nb := st.budgetAt(now)
	if nb == st.curBudget {
		return nil
	}
	st.accrue(now)
	sp := st.obs.StartSpan(st.spanCtx, "facility", "budget_change").SetValue(nb.Watts())
	old, err := st.applyBudgetChange(now, nb)
	if err != nil {
		sp.End()
		return err
	}
	if nb < old && st.sched.CommittedPower() > nb {
		if err := st.shed(nb, now); err != nil {
			sp.End()
			return err
		}
	}
	sp.End()
	return st.reconcile(now, true, false)
}

// shed is the event core's emergency response: shed running jobs, newest
// started first (the least sunk progress), until the committed power fits
// nb. Preempt checkpoints and requeues; kill aborts outright; throttle
// sheds nothing and lets the policy squeeze everyone under the new budget.
func (st *simState) shed(nb units.Power, now time.Duration) error {
	pol := st.cfg.emergency()
	if pol == EmergencyThrottle {
		return nil
	}
	for st.sched.CommittedPower() > nb && len(st.active) > 0 {
		r := st.active[len(st.active)-1] // start-ordered: newest is last
		rec := r.rec
		st.advance(r, now)
		st.removeActive(r)
		if pol == EmergencyKill {
			if err := st.sched.Abort(r.sj); err != nil {
				return err
			}
			rec.checkpoint = 0
			st.res.Killed++
			st.obs.JobKilled(rec.ID, rec.Iterations-r.remaining)
			rec.State = JobKilled
			rec.FinishedAt = now
			continue
		}
		ckpt, lost := st.recordCheckpoint(rec, r.remaining)
		if err := st.sched.Requeue(r.sj); err != nil {
			return err
		}
		st.res.Preempted++
		st.obs.JobPreempted(rec.ID, ckpt, lost)
		rec.State = JobQueued
		rec.Preemptions++
	}
	return nil
}
