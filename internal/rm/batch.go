package rm

import (
	"fmt"

	"powerstack/internal/node"
	"powerstack/internal/obs"
	"powerstack/internal/rapl"
	"powerstack/internal/units"
)

// CapBatch is the manager's cap writer: every replan's caps, the facility's
// and Manager.Apply's, go through one or more batches. A batch programs
// each host's cap on its device at once but defers every mutation of
// shared manager state — quarantine decisions, spare-pool pops, last-cap
// bookkeeping — into local records that CommitCapBatches replays
// sequentially in a deterministic order. Records hold node pointers; the
// commit writes each node's drained flag and last-cap slot
// (node.Node.Slot) directly.
//
// A host whose cap equals its last-cap slot is skipped: its register
// already holds those bits. A write on a node with an injected MSR fault
// leaves its slot unknown (see Manager.writeLimit), so such a node is
// rewritten on every replan and its fault countdowns stay exact.
//
// The split is what makes the parallel replan exact: during the apply
// phase, workers only read manager state that the phase never writes
// (drained flags, last caps) and touch devices no other worker touches (hosts
// are disjoint across jobs, and a job belongs to exactly one batch), so
// register traffic, retry counts, and fault-countdown consumption per
// device do not depend on how jobs are spread over batches. Each batch owns
// its own limit encoder: the shared encoder's slot is not
// concurrency-safe, and since encoding is an exact memoization, private
// slots change nothing observable.
//
// A batch must not be shared across concurrent goroutines; give each unit
// of parallel work its own and Reset between rounds.
type CapBatch struct {
	m   *Manager
	enc rapl.LimitEncoder

	writes   []capWrite
	failures []capFailure
}

// capWrite is one attempted cap write, pending its last-cap commit: the
// cap the node's slot may hold afterwards (NaN when unknown).
type capWrite struct {
	node *node.Node
	last units.Power
}

// capFailure is a host whose cap write exhausted its retries. The merge
// phase quarantines it, claims a spare, and closes the span — in
// (job submission index, host index) order.
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

// Reset clears the batch for reuse, keeping capacity and the encoder slot.
func (b *CapBatch) Reset() {
	b.writes = b.writes[:0]
	b.failures = b.failures[:0]
}

// NumFailures returns how many host cap writes in the batch have exhausted
// their retries so far. A job whose ApplyCaps call grew this count must not
// be probed until CommitCapBatches has run — the commit may swap the failed
// host for a spare.
func (b *CapBatch) NumFailures() int { return len(b.failures) }

// ApplyCaps programs one job's per-host caps, deferring quarantine and
// spare replacement to the commit phase. Quarantined hosts and hosts whose
// cap is unchanged are skipped; every other host gets a cap_write span and
// bounded retries. jobIdx is the job's submission index (its position in
// Manager.Jobs()), which fixes the deterministic order failures are merged
// in. changed reports whether any host was written (or failed to be), that
// is whether the job's operating point may have moved. Errors are
// structural only (cap/host count mismatch).
func (b *CapBatch) ApplyCaps(sj *ScheduledJob, jobIdx int, caps []units.Power) (changed bool, err error) {
	m := b.m
	if len(caps) != len(sj.Job.Hosts) {
		return false, fmt.Errorf("rm: job %s: %d caps for %d hosts", sj.Spec.ID, len(caps), len(sj.Job.Hosts))
	}
	for i := range sj.Job.Hosts {
		n := sj.Job.Hosts[i].Node
		if m.drained[n.Slot()] || m.capUnchanged(n, caps[i]) {
			// A drained host was given up on: the job keeps running at
			// its last limit without another retry storm. An unchanged
			// host already holds the cap.
			continue
		}
		changed = true
		sp := m.Obs.StartSpan(m.SpanParent, "rm", "cap_write").
			SetScope(sj.Spec.ID).SetHost(n.ID).SetValue(caps[i].Watts())
		last, err := m.writeLimit(n, caps[i], &b.enc)
		b.writes = append(b.writes, capWrite{n, last})
		if err == nil {
			sp.End()
			continue
		}
		// The span stays open: the merge phase records the spare swap (if
		// any) on it before ending it.
		b.failures = append(b.failures, capFailure{
			sj: sj, jobIdx: jobIdx, host: i, node: n, cap: caps[i], span: sp,
		})
	}
	return changed, nil
}

// CommitCapBatches merges apply rounds back into the manager. Last-cap
// slots are committed batch by batch — hosts are disjoint across jobs, so
// commit order cannot change the final state — and then every failure
// across all batches is handled in (job submission index, host index)
// order: quarantine, spare claim, host swap, span close. The spare pool is
// therefore consumed in the same order however jobs were spread over
// batches.
func (m *Manager) CommitCapBatches(batches []*CapBatch) {
	var failures []capFailure
	for _, b := range batches {
		for _, w := range b.writes {
			m.lastCap[w.node.Slot()] = w.last
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
