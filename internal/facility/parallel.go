// The facility's worker pool: Config.Parallelism workers fan three phases
// out, each followed by a serial merge that replays everything
// order-sensitive in the order a single goroutine would. Results are
// byte-identical at every parallelism, including 0 and 1, which run every
// phase inline without goroutines (pinned by TestParallelReplanByteIdentical
// and TestIncrementalTelemetryMatchesSweepFacility).
//
// Replan pipeline (every replan, at every Parallelism). A replan round has
// a sequential prefix — policy views and, at rack/room scope (scale.go),
// per-job requests, the rack/room aggregation, and the room-level
// water-fill (coordinator.HierAlloc.Stage) — after which every task is
// independent. At flat scope the one task is one group, every running job
// under the facility budget; at rack/room scope each room is a task whose
// racks are its groups. A group's policy split, its cap writes, and the
// steady-state re-probes of its fresh or changed jobs touch only its
// requests and those jobs' (disjoint) hosts. All mutation of shared state
// is deferred into per-worker buffers:
//
//   - grants land at per-request indexes in Stage's shared buffer (each
//     index written by exactly one room), and change flags at per-request
//     indexes;
//   - cap writes run through a per-worker rm.CapBatch, which programs
//     devices immediately (hosts are disjoint across jobs, and a job
//     belongs to exactly one task) but defers quarantine decisions,
//     spare claims, and lastCap bookkeeping to CommitCapBatches;
//   - probe results (evJob.measure: a bsp iteration drawn from the job's
//     private RNG, then the credit of its steady-state iterations at the
//     outgoing operating point) land at per-request indexes.
//
// A request index is the job's position in the active list, which is
// index for index the manager's schedule; the fresh jobs are the list's
// tail. The merge then commits
// the batches in (job submission index, host index) order and walks the
// active list in order, doing only each probed job's bookkeeping and
// completion re-schedule (applyProbe), so engine event sequence numbers
// are identical at every parallelism. A job that suffered a cap-write
// failure is neither probed nor settled on a worker: the commit may swap
// its failed host for a spare, so it is measured in the merge walk against
// the post-commit host set.
//
// Sample settlement (simState.advanceAll). Workers credit each active job's
// due iterations to its own hosts — counter adds commute modulo the
// register width — and one serial pass in active-list order then marks the
// hosts dirty and advances the jobs' accounting.
//
// Telemetry leaf reads (telemetry.Hierarchy.SampleDirty). Workers read
// fixed-size chunks of the sorted dirty-leaf list; each leaf writes only its
// own ordinal's entries and its node's devices. One serial merge in
// ascending leaf order compacts the dirty set, re-sums the PDU, room and
// root tiers above the visited leaves and makes the TelemetryHold journal
// calls.
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
// memo), and the policy input of one group.
type pipeWorker struct {
	room  coordinator.RoomScratch
	batch *rm.CapBatch
	sub   []policy.JobInfo
}

// pipeScratch is the reusable state of one pipeline round. Everything is
// index-addressed so workers never contend: probe results and change flags
// land at request indexes (positions in the active list), task errors at
// task indexes, grants in Stage's shared buffer.
type pipeScratch struct {
	infos  []policy.JobInfo    // policy views, one per request index
	grants []coordinator.Grant // Stage's result buffer, same indexing (rack/room scope)
	all    []int               // every request index: the flat scope's one group
	now    time.Duration       // the round's virtual time
	fresh  int                 // first request index started this reconcile

	changed []bool // request index had a cap written
	probed  []bool // request index was measured on a worker
	iters   []bsp.IterationResult
	perrs   []error
	settled []int // iterations credited on the worker at the outgoing point
	taskErr []error

	workers []pipeWorker
	batches []*rm.CapBatch // the round's batches, for CommitCapBatches
}

// begin resets the scratch for a round over len(infos) requests, the last
// fresh of them just started, in tasks tasks at virtual time now, with up
// to workers workers.
func (p *pipeScratch) begin(m *rm.Manager, workers, tasks int, now time.Duration, infos []policy.JobInfo, grants []coordinator.Grant, fresh int) {
	n := len(infos)
	p.infos, p.grants, p.now, p.fresh = infos, grants, now, n-fresh
	p.all = growPlan(p.all, n)
	for qi := range p.all {
		p.all[qi] = qi
	}
	p.changed = growPlan(p.changed, n)
	p.probed = growPlan(p.probed, n)
	clear(p.changed)
	clear(p.probed)
	// iters/perrs/settled entries are gated by probed; stale values are
	// never read.
	p.iters = growPlan(p.iters, n)
	p.perrs = growPlan(p.perrs, n)
	p.settled = growPlan(p.settled, n)
	p.taskErr = growPlan(p.taskErr, tasks)
	clear(p.taskErr)
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

// reprobe reports whether request qi is re-measured this round: it just
// started, or its caps were written.
func (p *pipeScratch) reprobe(qi int) bool { return qi >= p.fresh || p.changed[qi] }

// replanPipeline is the replan, fused with the re-probes of the fresh jobs
// (the last fresh of the active list) and of those whose caps moved. At
// flat scope the whole running set is one group under the facility
// budget, run as one task; at rack/room scope the round is staged, and
// each room is a task whose racks are its groups.
func (st *simState) replanPipeline(now time.Duration, fresh int) error {
	infos, err := st.mgr.JobInfos(st.db)
	if err != nil {
		return err
	}
	var grants []coordinator.Grant
	tasks := 1
	if st.scale {
		st.planRequests(infos)
		sc := &st.plan
		grants, tasks = st.hier.Stage(st.curBudget, sc.reqs, sc.rackOf, sc.roomOf)
	}
	pipe := &st.pipe
	pipe.begin(st.mgr, st.pool.workers, tasks, now, infos, grants, fresh)
	st.pool.run(tasks, func(ti, w int) {
		if st.scale {
			pipe.taskErr[ti] = st.roomApplyProbe(ti, w)
		} else {
			pipe.taskErr[ti] = st.groupApplyProbe(w, pipe.all, st.curBudget)
		}
	})
	// Commit even when a task failed, so the last-cap slots match the
	// registers.
	st.mgr.CommitCapBatches(pipe.batches)
	for _, err := range pipe.taskErr {
		if err != nil {
			return err
		}
	}
	// The merge walk is the probe loop: active-list order, so completion
	// events re-schedule with identical engine sequence numbers at every
	// parallelism.
	for qi, r := range st.active {
		if !pipe.reprobe(qi) {
			continue
		}
		if !pipe.probed[qi] {
			// Deferred (cap-write failure): measure against the post-commit
			// host set.
			pipe.iters[qi], pipe.settled[qi], pipe.perrs[qi] = r.measure(now)
		}
		if err := st.applyProbe(r, pipe.iters[qi], pipe.settled[qi], pipe.perrs[qi], now); err != nil {
			return err
		}
	}
	return nil
}

// roomApplyProbe is one room task at rack/room scope: the room's rack and
// job allocation rounds land the racks' water-filled budgets in grants,
// then each rack runs as one group.
func (st *simState) roomApplyProbe(mi, w int) error {
	pipe := &st.pipe
	st.hier.AllocateRoom(mi, st.plan.reqs, &pipe.workers[w].room, pipe.grants)
	for _, ri := range st.hier.RoomRacks(mi) {
		members := st.hier.RackRequests(ri)
		var budget units.Power
		for _, qi := range members {
			budget += pipe.grants[qi].Budget
		}
		if err := st.groupApplyProbe(w, members, budget); err != nil {
			return err
		}
	}
	return nil
}

// groupApplyProbe is one group's policy, cap, and probe work: the policy
// splits budget over the members' jobs, the caps go through the worker's
// batch, and every fresh or changed job without a cap failure is measured,
// the result parked at its request index for the merge walk.
func (st *simState) groupApplyProbe(w int, members []int, budget units.Power) error {
	pipe := &st.pipe
	pw := &pipe.workers[w]
	pw.sub = pw.sub[:0]
	for _, qi := range members {
		pw.sub = append(pw.sub, pipe.infos[qi])
	}
	part, err := st.pol.Allocate(policy.System{Budget: budget}, pw.sub)
	if err != nil {
		return err
	}
	for _, qi := range members {
		r := st.active[qi]
		caps, ok := part[r.sj.Spec.ID]
		if !ok {
			return fmt.Errorf("rm: allocation missing job %s", r.sj.Spec.ID)
		}
		f0 := pw.batch.NumFailures()
		changed, err := pw.batch.ApplyCaps(r.sj, qi, caps)
		if err != nil {
			return err
		}
		pipe.changed[qi] = changed
		if pw.batch.NumFailures() > f0 || !pipe.reprobe(qi) {
			continue // a cap failure defers the probe past CommitCapBatches
		}
		pipe.iters[qi], pipe.settled[qi], pipe.perrs[qi] = r.measure(pipe.now)
		pipe.probed[qi] = true
	}
	return nil
}
