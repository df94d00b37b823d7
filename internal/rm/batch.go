package rm

import (
	"fmt"

	"powerstack/internal/node"
	"powerstack/internal/obs"
	"powerstack/internal/rapl"
	"powerstack/internal/units"
)

// CapBatch is the worker-side half of a parallel cap-apply round. A batch
// programs per-host caps exactly like Manager.ApplyCaps but defers every
// mutation of shared manager state — quarantine decisions, spare-pool pops,
// lastCap/changed bookkeeping — into local records that CommitCapBatches
// replays sequentially in a deterministic order. Records hold node
// pointers; the commit writes each node's drained flag and last-cap slot
// (node.Node.Slot) directly.
//
// The split is what makes the parallel replan exact: during the apply
// phase, workers only read manager state that the phase never writes
// (drained flags, last caps) and touch devices no other worker touches (hosts
// are disjoint across jobs, and a job belongs to exactly one batch), so
// register traffic, retry counts, and fault-countdown consumption per
// device are identical to the sequential pass. Each batch owns its own
// limit encoder: the shared encoder's memo map is not concurrency-safe, and
// since encoding is an exact memoization, private memos change nothing
// observable.
//
// A batch must not be shared across concurrent goroutines; give each unit
// of parallel work its own and Reset between rounds.
type CapBatch struct {
	m   *Manager
	enc rapl.LimitEncoder

	writes   []capWrite
	forgets  []*node.Node
	changed  []string
	failures []capFailure
}

// capWrite is a successful programmed cap, pending lastCap commit.
type capWrite struct {
	node  *node.Node
	watts units.Power
}

// capFailure is a host whose cap write exhausted its retries. The merge
// phase quarantines it, claims a spare, and closes the span — in
// (job submission index, host index) order, exactly the order the
// sequential pass would have popped spares in.
type capFailure struct {
	sj     *ScheduledJob
	jobIdx int
	host   int
	node   *node.Node
	cap    units.Power
	span   *obs.Span
}

// NewCapBatch returns an empty batch bound to the manager.
func (m *Manager) NewCapBatch() *CapBatch { return &CapBatch{m: m} }

// Reset clears the batch for reuse, keeping capacity and the encoder memo.
func (b *CapBatch) Reset() {
	b.writes = b.writes[:0]
	b.forgets = b.forgets[:0]
	b.changed = b.changed[:0]
	b.failures = b.failures[:0]
}

// NumChanged returns how many jobs the batch has recorded with at least
// one host cap that actually moved (Incremental mode). Callers bracket an
// ApplyCaps call with it to learn whether that job's operating point may
// have shifted.
func (b *CapBatch) NumChanged() int { return len(b.changed) }

// NumFailures returns how many host cap writes in the batch have exhausted
// their retries so far. A job whose ApplyCaps call grew this count must not
// be probed until CommitCapBatches has run — the commit may swap the failed
// host for a spare.
func (b *CapBatch) NumFailures() int { return len(b.failures) }

// setLimit is Manager.setLimit against batch-local state: same retry
// budget, same journaling, but lastCap updates and forgets are recorded for
// the commit phase instead of applied.
func (b *CapBatch) setLimit(n *node.Node, watts units.Power) error {
	m := b.m
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
		if _, err = n.SetPowerLimitCached(watts, &b.enc); err == nil {
			m.Obs.CapWriteRetries(n.ID, attempt)
			if m.Incremental {
				b.writes = append(b.writes, capWrite{n, watts})
			}
			return nil
		}
	}
	m.Obs.CapWriteRetries(n.ID, retries)
	b.forgets = append(b.forgets, n)
	return err
}

// ApplyCaps programs one job's per-host caps with ApplyCaps semantics,
// deferring quarantine and spare replacement to the commit phase. jobIdx is
// the job's submission index (its position in Manager.Jobs()), which fixes
// the deterministic order failures are merged in. Errors are structural
// only (cap/host count mismatch).
func (b *CapBatch) ApplyCaps(sj *ScheduledJob, jobIdx int, caps []units.Power) error {
	m := b.m
	if len(caps) != len(sj.Job.Hosts) {
		return fmt.Errorf("rm: job %s: %d caps for %d hosts", sj.Spec.ID, len(caps), len(sj.Job.Hosts))
	}
	changed := false
	for i := range sj.Job.Hosts {
		n := sj.Job.Hosts[i].Node
		if m.drained[n.Slot()] {
			continue
		}
		if m.Incremental {
			if m.capUnchanged(n, caps[i]) {
				continue
			}
			if !changed {
				changed = true
				b.changed = append(b.changed, sj.Spec.ID)
			}
		}
		sp := m.Obs.StartSpan(m.SpanParent, "rm", "cap_write").
			SetScope(sj.Spec.ID).SetHost(n.ID).SetValue(caps[i].Watts())
		err := b.setLimit(n, caps[i])
		if err == nil {
			sp.End()
			continue
		}
		// The span stays open: the merge phase records the spare swap (if
		// any) on it before ending it, as the sequential path does.
		b.failures = append(b.failures, capFailure{
			sj: sj, jobIdx: jobIdx, host: i, node: n, cap: caps[i], span: sp,
		})
	}
	return nil
}

// CommitCapBatches merges parallel apply rounds back into the manager.
// Bookkeeping (last-cap slots, changed-job set) is committed batch by
// batch — hosts are disjoint across jobs, so commit order cannot change
// the final state — and then every failure across all batches is handled in
// (job submission index, host index) order: quarantine, spare claim, host
// swap, span close. That is precisely the order the sequential Apply pass
// encounters failures in, so the spare pool is consumed identically.
func (m *Manager) CommitCapBatches(batches []*CapBatch) {
	var failures []capFailure
	for _, b := range batches {
		if b == nil {
			continue
		}
		if m.Incremental {
			last := m.lastCaps()
			for _, w := range b.writes {
				last[w.node.Slot()] = w.watts
			}
			for _, id := range b.changed {
				if m.changed == nil {
					m.changed = map[string]bool{}
				}
				m.changed[id] = true
			}
		}
		for _, n := range b.forgets {
			m.forgetCap(n)
		}
		failures = append(failures, b.failures...)
	}
	if len(failures) == 0 {
		return
	}
	sortFailures(failures)
	for _, f := range failures {
		m.quarantine(f.node, "cap_write")
		if spare := m.takeSpare(f.cap); spare != nil {
			m.swapHost(f.sj, f.host, spare)
			f.span.SetHost(spare.ID)
		}
		f.span.End()
	}
}

// sortFailures orders by (job submission index, host index). Insertion sort
// — failures are rare and the list is tiny.
func sortFailures(fs []capFailure) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0; j-- {
			a, b := fs[j-1], fs[j]
			if a.jobIdx < b.jobIdx || (a.jobIdx == b.jobIdx && a.host < b.host) {
				break
			}
			fs[j-1], fs[j] = b, a
		}
	}
}
