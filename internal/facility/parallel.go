// The facility's worker pool: Config.Parallelism workers fan three phases
// out, each followed by a serial merge that replays everything
// order-sensitive in the order a single goroutine would. Results are
// byte-identical at every parallelism, including 0 and 1, which run every
// phase inline without goroutines (pinned by TestParallelReplanByteIdentical
// and TestIncrementalTelemetryMatchesSweepFacility).
//
// Replan pipeline (the scale-mode replan, at every Parallelism). A replan
// round has a sequential prefix — policy views, per-job requests, the
// rack/room aggregation, and the room-level water-fill
// (coordinator.HierAlloc.Stage) — after which every room is independent:
// its rack and job allocation rounds, its per-rack policy splits, its cap
// writes, and the steady-state re-probes of its fresh or changed jobs
// touch only that room's requests and those jobs' (disjoint) hosts. Each
// room runs as one task, with all mutation of shared state deferred into
// per-worker buffers:
//
//   - grants land at per-request indexes in Stage's shared buffer (each
//     index written by exactly one room);
//   - cap writes run through a per-worker rm.CapBatch, which programs
//     devices immediately (hosts are disjoint across jobs, and a job
//     belongs to exactly one room task) but defers quarantine decisions,
//     spare claims, and lastCap bookkeeping to CommitCapBatches;
//   - probe results (bsp iteration measurements, drawn from each job's
//     private RNG) land at per-request indexes, and each probed job is
//     credited its steady-state iterations at the outgoing operating point
//     right there, the count parked beside the measurement.
//
// The merge then commits the batches in (job submission index, host index)
// order and walks the active list in order, doing only each probed job's
// bookkeeping and completion re-schedule, so engine event sequence numbers
// are identical at every parallelism. A job that suffered a cap-write
// failure is neither probed nor settled on a worker: the commit may swap
// its failed host for a spare, so its probe runs in the merge walk against
// the post-commit host set.
//
// Sample settlement (eventSim.advanceAll). Workers credit each active job's
// due iterations to its own hosts — counter adds commute modulo the
// register width — and one serial pass in active-list order then marks the
// hosts dirty and advances the jobs' accounting.
//
// Telemetry leaf reads (telemetry.Domain.SampleDirty). Workers read
// fixed-size chunks of the sorted dirty-leaf list; each leaf writes only its
// own domain, index entries and devices. One serial merge in ascending leaf
// order compacts the dirty set, marks parents, re-sums interiors and makes
// the TelemetryHold journal calls.
//
// The journal contract: telemetry_hold events keep leaf order at every
// parallelism. EnergyWrap and LimitWrite events emitted on workers (energy
// reads, cap writes) are counted exactly, but their interleaving with each
// other and with merge-side events is not pinned.
package facility

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"powerstack/internal/bsp"
	"powerstack/internal/coordinator"
	"powerstack/internal/policy"
	"powerstack/internal/rm"
	"powerstack/internal/units"
)

// workerPool fans tasks out across a bounded worker set. Tasks are claimed
// from an atomic counter (assignment to workers is load-balanced and
// non-deterministic; determinism lives entirely in the index-addressed
// result buffers and the sequential merges). A pool with at most one worker
// runs every task inline on the caller's goroutine.
type workerPool struct {
	workers int
}

// run executes fn(task, worker) for every task in [0, n), on up to
// p.workers goroutines (the caller's included). worker indexes are dense in
// [0, workers) so tasks can address per-worker scratch. run returns after
// every task has finished.
func (p *workerPool) run(n int, fn func(task, worker int)) {
	w := p.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i, 0)
		}
		return
	}
	var next atomic.Int64
	work := func(worker int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i, worker)
		}
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for k := 1; k < w; k++ {
		go func(worker int) {
			defer wg.Done()
			work(worker)
		}(k)
	}
	work(0)
	wg.Wait()
}

// pipeWorker is one worker's private pipeline scratch: room allocation
// buffers, the deferred-commit cap batch (with its own limit-encoder
// memo), and the policy sub-round input.
type pipeWorker struct {
	room  coordinator.RoomScratch
	batch *rm.CapBatch
	sub   []policy.JobInfo
}

// pipeScratch is the reusable state of one pipeline round. Everything is
// index-addressed so workers never contend: probe results land at request
// indexes, room errors at room indexes, grants in Stage's shared buffer.
type pipeScratch struct {
	jobs   []*rm.ScheduledJob  // mgr.Jobs() for this round (submission order)
	infos  []policy.JobInfo    // policy views, same indexing
	grants []coordinator.Grant // Stage's result buffer, same indexing

	freshSet map[*rm.ScheduledJob]bool // jobs started this reconcile
	qiOf     map[*rm.ScheduledJob]int  // job -> request index
	evs      []*evJob                  // request index -> active job
	now      time.Duration             // the round's virtual time

	probed  []bool // request index was probed on a worker
	iters   []bsp.IterationResult
	perrs   []error
	settled []int // iterations credited on the worker at the outgoing point
	roomErr []error

	workers []pipeWorker
	batches []*rm.CapBatch // the round's batches, for CommitCapBatches
}

// begin resets the scratch for a round of len(jobs) requests over rooms
// rooms at virtual time now, with up to workers workers.
func (p *pipeScratch) begin(m *rm.Manager, workers, rooms int, now time.Duration, jobs []*rm.ScheduledJob, infos []policy.JobInfo, grants []coordinator.Grant, active, fresh []*evJob) {
	n := len(jobs)
	p.jobs, p.infos, p.grants, p.now = jobs, infos, grants, now
	if p.freshSet == nil {
		p.freshSet = map[*rm.ScheduledJob]bool{}
		p.qiOf = map[*rm.ScheduledJob]int{}
	}
	clear(p.freshSet)
	clear(p.qiOf)
	for _, r := range fresh {
		p.freshSet[r.sj] = true
	}
	for qi, sj := range jobs {
		p.qiOf[sj] = qi
	}
	p.evs = growPlan(p.evs, n)
	clear(p.evs)
	for _, r := range active {
		if qi, ok := p.qiOf[r.sj]; ok {
			p.evs[qi] = r
		}
	}
	p.probed = growPlan(p.probed, n)
	for i := range p.probed {
		p.probed[i] = false
	}
	// iters/perrs/settled entries are gated by probed; stale values are
	// never read.
	p.iters = growPlan(p.iters, n)
	p.perrs = growPlan(p.perrs, n)
	p.settled = growPlan(p.settled, n)
	p.roomErr = growPlan(p.roomErr, rooms)
	for i := range p.roomErr {
		p.roomErr[i] = nil
	}
	// The inline pool (0 or 1 workers) still runs its tasks as worker 0.
	workers = max(1, workers)
	for len(p.workers) < workers {
		p.workers = append(p.workers, pipeWorker{batch: m.NewCapBatch()})
	}
	p.batches = p.batches[:0]
	for i := 0; i < workers; i++ {
		p.workers[i].batch.Reset()
		p.batches = append(p.batches, p.workers[i].batch)
	}
}

// replanPipeline is the scale-mode replan, fused with the re-probes of the
// fresh jobs and of those whose caps moved: it stages the round, fans the
// rooms out, and merges.
func (s *eventSim) replanPipeline(now time.Duration, fresh []*evJob) error {
	st := s.simState
	jobs := st.mgr.Jobs()
	infos, err := st.mgr.JobInfos(st.db)
	if err != nil {
		return err
	}
	st.planRequests(infos)
	sc := &st.plan
	grants, rooms := st.hier.Stage(st.curBudget, sc.reqs, sc.rackOf, sc.roomOf)
	pipe := &st.pipe
	pipe.begin(st.mgr, st.pool.workers, rooms, now, jobs, infos, grants, s.active, fresh)
	st.pool.run(rooms, func(mi, w int) {
		st.hier.AllocateRoom(mi, sc.reqs, &pipe.workers[w].room, grants)
		if err := s.roomApplyProbe(mi, w); err != nil {
			pipe.roomErr[mi] = err
		}
	})
	for mi := 0; mi < rooms; mi++ {
		if pipe.roomErr[mi] != nil {
			return pipe.roomErr[mi]
		}
	}
	st.mgr.CommitCapBatches(pipe.batches)
	changed := st.mgr.TakeChangedJobs()
	// The merge walk is the probe loop: active-list order, so completion
	// events re-schedule with identical engine sequence numbers at every
	// parallelism.
	for _, r := range s.active {
		if !pipe.freshSet[r.sj] && !changed[r.sj.Spec.ID] {
			continue
		}
		if qi, ok := pipe.qiOf[r.sj]; ok && pipe.probed[qi] {
			if perr := pipe.perrs[qi]; perr != nil {
				return perr
			}
			s.applyProbe(r, pipe.iters[qi], pipe.settled[qi], now)
			continue
		}
		// Deferred (cap-write failure): probe against the post-commit host
		// set.
		if err := s.probe(r, now); err != nil {
			return err
		}
	}
	return nil
}

// roomApplyProbe is one room task's policy, cap, and probe work: for each
// of the room's racks, water-fill budgets are already in grants; the
// policy splits the rack's total over its jobs, the caps go through the
// worker's batch, and every fresh-or-changed job without a cap failure is
// probed and settled at its outgoing operating point, the measurement and
// the credited count parked at its request index for the merge walk.
func (s *eventSim) roomApplyProbe(mi, w int) error {
	st := s.simState
	pipe := &st.pipe
	pw := &pipe.workers[w]
	for _, ri := range st.hier.RoomRacks(mi) {
		members := st.hier.RackRequests(ri)
		var budget units.Power
		pw.sub = pw.sub[:0]
		for _, qi := range members {
			budget += pipe.grants[qi].Budget
			pw.sub = append(pw.sub, pipe.infos[qi])
		}
		part, err := st.pol.Allocate(policy.System{Budget: budget}, pw.sub)
		if err != nil {
			return err
		}
		for _, qi := range members {
			sj := pipe.jobs[qi]
			caps, ok := part[sj.Spec.ID]
			if !ok {
				return fmt.Errorf("rm: allocation missing job %s", sj.Spec.ID)
			}
			ch0, f0 := pw.batch.NumChanged(), pw.batch.NumFailures()
			if err := pw.batch.ApplyCaps(sj, qi, caps); err != nil {
				return err
			}
			if pw.batch.NumFailures() > f0 {
				continue // probe deferred past CommitCapBatches
			}
			if pw.batch.NumChanged() > ch0 || pipe.freshSet[sj] {
				ir, perr := sj.Job.RunIteration()
				k := 0
				if r := pipe.evs[qi]; r != nil && perr == nil {
					k = r.due(pipe.now)
					r.credit(k)
				}
				pipe.iters[qi], pipe.perrs[qi], pipe.settled[qi] = ir, perr, k
				pipe.probed[qi] = true
			}
		}
	}
	return nil
}
