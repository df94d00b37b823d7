package rm

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"powerstack/internal/msr"
	"powerstack/internal/node"
	"powerstack/internal/units"
)

// denseWorld is a manager mid-run: two 4-host jobs, job b's third host
// drained, and one free node drained and rejoined. Job a's second host,
// bad, is armed to fail every cap write after the first round.
type denseWorld struct {
	m    *Manager
	pool []*node.Node // the manager's pool: a sub-slice of a larger one
	caps [][]units.Power
	bad  *node.Node
}

// round applies the world's caps to every job, sequentially through
// ApplyCaps or batched through CapBatch and CommitCapBatches. Batched jobs
// alternate between two batches, so the commit merges across batches.
func (w *denseWorld) round(t *testing.T, batched bool) {
	t.Helper()
	if !batched {
		for ji, sj := range w.m.Jobs() {
			if err := w.m.ApplyCaps(sj, w.caps[ji]); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	batches := []*CapBatch{w.m.NewCapBatch(), w.m.NewCapBatch()}
	for ji, sj := range w.m.Jobs() {
		if err := batches[ji%2].ApplyCaps(sj, ji, w.caps[ji]); err != nil {
			t.Fatal(err)
		}
	}
	w.m.CommitCapBatches(batches)
}

// newDenseWorld builds the world over testPool(14)[off:]. A manager over the
// whole pool is built first, so a sub-slice manager must reassign the slots.
func newDenseWorld(t *testing.T, off int) *denseWorld {
	t.Helper()
	full := testPool(t, 14)
	NewManager(full)
	w := &denseWorld{pool: full[off:]}
	w.m = NewManager(w.pool)
	w.m.Incremental = true
	var jobs []*ScheduledJob
	for i, id := range []string{"a", "b"} {
		sj, err := w.m.Submit(JobSpec{ID: id, Config: cfgBalanced(), Nodes: 4}, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, sj)
		caps := make([]units.Power, 4)
		for h := range caps {
			caps[h] = units.Power(150+10*i+h) * units.Watt
		}
		w.caps = append(w.caps, caps)
	}
	if _, held := w.m.Drain(jobs[1].Job.Hosts[2].Node.ID, "crash"); !held {
		t.Fatal("drained host not reported held")
	}
	rejoin := w.pool[8].ID // the first free node
	if _, held := w.m.Drain(rejoin, "crash"); held {
		t.Fatal("free node reported held")
	}
	if !w.m.Rejoin(rejoin) {
		t.Fatal("drained free node did not rejoin")
	}
	w.bad = jobs[0].Job.Hosts[1].Node
	return w
}

// words snapshots every register of the manager's pool.
func (w *denseWorld) words() []uint64 {
	var out []uint64
	for _, n := range w.pool {
		out = n.SnapshotWords(out)
	}
	return out
}

func quarantinedIDs(m *Manager) []string {
	var ids []string
	for _, n := range m.Quarantined() {
		ids = append(ids, n.ID)
	}
	return ids
}

// TestDenseCapStateMatchesSequential pins the slot-indexed drained flags and
// last-cap slots: the sequential ApplyCaps path and the batched
// CapBatch+CommitCapBatches path leave identical registers, drain sets and
// changed-job sets over a clean round, a round where one host's write
// fails and a spare replaces it, and an unchanged round — on a full pool
// and on a manager over a sub-slice of one.
func TestDenseCapStateMatchesSequential(t *testing.T) {
	for _, off := range []int{0, 3} {
		t.Run(fmt.Sprintf("offset%d", off), func(t *testing.T) {
			seq, bat := newDenseWorld(t, off), newDenseWorld(t, off)
			for i, n := range seq.pool {
				if n.Slot() != i {
					t.Fatalf("node %s at pool position %d has slot %d", n.ID, i, n.Slot())
				}
			}
			wantChanged := []string{"map[a:true b:true]", "map[a:true]", "map[]"}
			for round, want := range wantChanged {
				if round == 1 {
					// Job a's caps move and its second host's writes fail.
					for _, w := range []*denseWorld{seq, bat} {
						for h := range w.caps[0] {
							w.caps[0][h] += 5 * units.Watt
						}
						w.bad.Sockets()[1].Dev.ArmFault(msr.OpWrite, msr.MSRPkgPowerLimit, 0, errors.New("write fault"))
					}
				}
				seq.round(t, false)
				bat.round(t, true)

				if !slices.Equal(seq.words(), bat.words()) {
					t.Fatalf("round %d: registers differ between sequential and batched apply", round)
				}
				if a, b := quarantinedIDs(seq.m), quarantinedIDs(bat.m); !slices.Equal(a, b) {
					t.Fatalf("round %d: quarantined %v sequential, %v batched", round, a, b)
				}
				for _, w := range []*denseWorld{seq, bat} {
					if got := fmt.Sprint(w.m.TakeChangedJobs()); got != want {
						t.Fatalf("round %d: changed jobs %s, want %s", round, got, want)
					}
					w.checkSlots(t, round)
				}
			}
		})
	}
}

// checkSlots pins each node's drained flag and last-cap slot after a round.
func (w *denseWorld) checkSlots(t *testing.T, round int) {
	t.Helper()
	m := w.m
	if q := m.Quarantined(); len(q) != min(round+1, 2) || slices.Contains(q, w.bad) != (round > 0) {
		t.Fatalf("round %d: quarantined %v", round, quarantinedIDs(m))
	}
	if round > 0 {
		// The failed host's register may hold anything: its slot is
		// unknown, so even the cap that just failed would be rewritten.
		if !m.drained[w.bad.Slot()] || m.capUnchanged(w.bad, w.caps[0][1]) || !math.IsNaN(float64(m.lastCap[w.bad.Slot()])) {
			t.Fatalf("round %d: failed host slot drained=%v last=%v", round, m.drained[w.bad.Slot()], m.lastCap[w.bad.Slot()])
		}
		if spare := m.Jobs()[0].Job.Hosts[1].Node; spare == w.bad || m.drained[spare.Slot()] {
			t.Fatalf("round %d: failed host not replaced by a live spare", round)
		}
	}
	for ji, sj := range m.Jobs() {
		for h, host := range sj.Job.Hosts {
			n := host.Node
			if m.pool[n.Slot()] != n {
				t.Fatalf("round %d: host %s slot %d holds %s", round, n.ID, n.Slot(), m.pool[n.Slot()].ID)
			}
			if m.drained[n.Slot()] {
				continue
			}
			// Every live host, the spare swapped in for the failed one
			// included, is tracked at its own slot with its cap.
			if got := m.lastCap[n.Slot()]; got != w.caps[ji][h] {
				t.Fatalf("round %d: job %s host %d (%s) last cap %v, want %v", round, sj.Spec.ID, h, n.ID, got, w.caps[ji][h])
			}
		}
	}
}

// BenchmarkCapBatchApplyCaps times one batched cap round on a 512-host job
// with half the caps changed since the last commit. It must not allocate.
func BenchmarkCapBatchApplyCaps(b *testing.B) {
	m := NewManager(testPool(b, 512))
	m.Incremental = true
	sj, err := m.Submit(JobSpec{ID: "wide", Config: cfgBalanced(), Nodes: 512}, 1)
	if err != nil {
		b.Fatal(err)
	}
	var caps [2][]units.Power
	for k := range caps {
		caps[k] = make([]units.Power, 512)
		for h := range caps[k] {
			caps[k][h] = 150 * units.Watt
			if h%2 == 1 {
				caps[k][h] += units.Power(k) * units.Watt
			}
		}
	}
	batches := []*CapBatch{m.NewCapBatch()}
	for k := range caps { // warm the encoder memo and the changed set
		batches[0].Reset()
		if err := batches[0].ApplyCaps(sj, 0, caps[k]); err != nil {
			b.Fatal(err)
		}
		m.CommitCapBatches(batches)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batches[0].Reset()
		if err := batches[0].ApplyCaps(sj, 0, caps[i&1]); err != nil {
			b.Fatal(err)
		}
		m.CommitCapBatches(batches)
	}
}
