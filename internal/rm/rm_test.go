package rm

import (
	"context"
	"errors"
	"math"
	"testing"

	"powerstack/internal/charz"
	"powerstack/internal/cluster"
	"powerstack/internal/cpumodel"
	"powerstack/internal/kernel"
	"powerstack/internal/msr"
	"powerstack/internal/node"
	"powerstack/internal/policy"
	"powerstack/internal/units"
)

func testPool(t testing.TB, n int) []*node.Node {
	t.Helper()
	c, err := cluster.New(n, cpumodel.Quartz(), cpumodel.QuartzVariation(), 33)
	if err != nil {
		t.Fatal(err)
	}
	return c.Nodes()
}

func cfgBalanced() kernel.Config {
	return kernel.Config{Intensity: 8, Vector: kernel.YMM, Imbalance: 1}
}

func cfgImbalanced() kernel.Config {
	return kernel.Config{Intensity: 8, Vector: kernel.YMM, WaitingPct: 50, Imbalance: 3}
}

// charDB characterizes both test configs on a scratch set of nodes.
func charDB(t *testing.T) *charz.DB {
	t.Helper()
	nodes := testPool(t, 6)
	db, err := charz.CharacterizeAll(
		context.Background(),
		[]kernel.Config{cfgBalanced(), cfgImbalanced()},
		nodes,
		charz.Options{MonitorIters: 8, BalancerIters: 40, Seed: 9, NoiseSigma: 0},
	)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestSubmitAllocatesNodes(t *testing.T) {
	m := NewManager(testPool(t, 10))
	sj, err := m.Submit(JobSpec{ID: "a", Config: cfgBalanced(), Nodes: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sj.Job.Hosts) != 4 {
		t.Errorf("hosts = %d", len(sj.Job.Hosts))
	}
	if m.FreeNodes() != 6 {
		t.Errorf("free = %d", m.FreeNodes())
	}
	if len(m.Jobs()) != 1 {
		t.Errorf("jobs = %d", len(m.Jobs()))
	}
}

func TestSubmitValidation(t *testing.T) {
	m := NewManager(testPool(t, 3))
	if _, err := m.Submit(JobSpec{ID: "x", Config: cfgBalanced(), Nodes: 0}, 1); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := m.Submit(JobSpec{ID: "x", Config: cfgBalanced(), Nodes: 5}, 1); err == nil {
		t.Error("oversubscription accepted")
	}
	if _, err := m.Submit(JobSpec{ID: "x", Config: kernel.Config{Intensity: -1, Imbalance: 1}, Nodes: 2}, 1); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestReleaseAllRestoresPoolAndLimits(t *testing.T) {
	m := NewManager(testPool(t, 6))
	sj, err := m.Submit(JobSpec{ID: "a", Config: cfgBalanced(), Nodes: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range sj.Job.Nodes() {
		if _, err := n.SetPowerLimit(150 * units.Watt); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.ReleaseAll(); err != nil {
		t.Fatal(err)
	}
	if m.FreeNodes() != 6 || len(m.Jobs()) != 0 {
		t.Errorf("free=%d jobs=%d", m.FreeNodes(), len(m.Jobs()))
	}
	for _, n := range sj.Job.Nodes() {
		p, err := n.PowerLimit()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p.Watts()-240) > 0.5 {
			t.Errorf("limit %v not reset", p)
		}
	}
}

func TestJobInfosFallsBackWithoutCharacterization(t *testing.T) {
	m := NewManager(testPool(t, 4))
	if _, err := m.Submit(JobSpec{ID: "a", Config: cfgBalanced(), Nodes: 2}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.JobInfos(nil); err == nil {
		t.Error("nil db accepted")
	}
	// A missing entry degrades to a fallback job instead of failing the
	// whole plan.
	infos, err := m.JobInfos(charz.NewDB())
	if err != nil {
		t.Fatalf("missing characterization errored: %v", err)
	}
	if len(infos) != 1 || !infos[0].Fallback {
		t.Errorf("infos = %+v, want one fallback job", infos)
	}
}

func TestPlanApplyRun(t *testing.T) {
	db := charDB(t)
	m := NewManager(testPool(t, 8))
	if _, err := m.Submit(JobSpec{ID: "bal", Config: cfgBalanced(), Nodes: 4}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(JobSpec{ID: "imb", Config: cfgImbalanced(), Nodes: 4}, 2); err != nil {
		t.Fatal(err)
	}
	budget := 8 * 200 * units.Watt
	alloc, err := m.Plan(policy.MixedAdaptive{}, budget, db)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Total() > budget+units.Power(0.01) {
		t.Errorf("plan %v exceeds budget %v", alloc.Total(), budget)
	}
	if err := m.Apply(alloc); err != nil {
		t.Fatal(err)
	}
	// The programmed limits match the allocation (within RAPL LSBs).
	for _, sj := range m.Jobs() {
		for i, h := range sj.Job.Hosts {
			p, err := h.Node.PowerLimit()
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(p.Watts()-alloc[sj.Spec.ID][i].Watts()) > 0.5 {
				t.Errorf("%s host %d: limit %v, want %v", sj.Spec.ID, i, p, alloc[sj.Spec.ID][i])
			}
		}
	}
	reports, err := m.RunAll(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("reports = %d", len(reports))
	}
	var total units.Power
	for _, r := range reports {
		if r.Iterations != 10 || r.TotalEnergy <= 0 {
			t.Errorf("report %s: %+v", r.JobID, r)
		}
		total += r.MeanPower()
	}
	if total > budget+units.Power(2) {
		t.Errorf("mix power %v exceeds budget %v", total, budget)
	}
}

func TestApplyValidation(t *testing.T) {
	m := NewManager(testPool(t, 4))
	if _, err := m.Submit(JobSpec{ID: "a", Config: cfgBalanced(), Nodes: 2}, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Apply(policy.Allocation{}); err == nil {
		t.Error("missing job allocation accepted")
	}
	if err := m.Apply(policy.Allocation{"a": {200}}); err == nil {
		t.Error("wrong cap count accepted")
	}
}

func TestRunAllRequiresJobs(t *testing.T) {
	m := NewManager(testPool(t, 2))
	if _, err := m.RunAll(5); err == nil {
		t.Error("RunAll with no jobs accepted")
	}
}

func TestOverrun(t *testing.T) {
	alloc := policy.Allocation{"a": {300, 300}}
	if got := Overrun(alloc, 500); got != 100 {
		t.Errorf("overrun = %v, want 100", got)
	}
	if got := Overrun(alloc, 700); got != 0 {
		t.Errorf("overrun = %v, want 0", got)
	}
}

func TestPrecharacterizedOverrunsTightBudget(t *testing.T) {
	db := charDB(t)
	m := NewManager(testPool(t, 4))
	if _, err := m.Submit(JobSpec{ID: "bal", Config: cfgBalanced(), Nodes: 4}, 1); err != nil {
		t.Fatal(err)
	}
	tight := 4 * 150 * units.Watt
	alloc, err := m.Plan(policy.Precharacterized{}, tight, db)
	if err != nil {
		t.Fatal(err)
	}
	if Overrun(alloc, tight) <= 0 {
		t.Error("Precharacterized should overrun a tight budget (Figure 7)")
	}
}

func TestReleaseAllQuarantinesResetFailures(t *testing.T) {
	pool := testPool(t, 6)
	m := NewManager(pool)
	if _, err := m.Submit(JobSpec{ID: "a", Config: cfgBalanced(), Nodes: 2}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(JobSpec{ID: "b", Config: cfgBalanced(), Nodes: 2}, 2); err != nil {
		t.Fatal(err)
	}
	// Break the TDP reset on one node of each job.
	errA := errors.New("device a unplugged")
	errB := errors.New("device b unplugged")
	pool[0].Sockets()[0].Dev.SetFault(msr.MSRPkgPowerLimit, errA)
	pool[2].Sockets()[1].Dev.SetFault(msr.MSRPkgPowerLimit, errB)

	if err := m.ReleaseAll(); err != nil {
		t.Errorf("ReleaseAll = %v, want graceful degradation", err)
	}
	// The healthy nodes return to the pool; the two faulty ones land in
	// quarantine instead of poisoning future schedules.
	if m.FreeNodes() != 4 || len(m.Jobs()) != 0 {
		t.Errorf("free=%d jobs=%d after faulty release", m.FreeNodes(), len(m.Jobs()))
	}
	if q := m.Quarantined(); len(q) != 2 {
		t.Fatalf("quarantined = %d nodes, want 2", len(q))
	}
}

func TestSubmitDistinguishesQuarantineFromCapacity(t *testing.T) {
	pool := testPool(t, 4)
	m := NewManager(pool)
	if _, err := m.Submit(JobSpec{ID: "a", Config: cfgBalanced(), Nodes: 2}, 1); err != nil {
		t.Fatal(err)
	}
	pool[0].Sockets()[0].Dev.SetFault(msr.MSRPkgPowerLimit, errors.New("stuck"))
	if err := m.ReleaseAll(); err != nil {
		t.Fatal(err)
	}
	// 3 free + 1 quarantined: a 4-node job is blocked only by quarantine,
	// a 5-node job could never fit.
	if _, err := m.Submit(JobSpec{ID: "b", Config: cfgBalanced(), Nodes: 4}, 2); !errors.Is(err, ErrNodeQuarantined) {
		t.Errorf("err = %v, want ErrNodeQuarantined", err)
	}
	if _, err := m.Submit(JobSpec{ID: "c", Config: cfgBalanced(), Nodes: 5}, 3); !errors.Is(err, ErrInsufficientNodes) {
		t.Errorf("err = %v, want ErrInsufficientNodes", err)
	}
}

func TestApplySwapsQuarantinedHostForSpare(t *testing.T) {
	db := charDB(t)
	pool := testPool(t, 6)
	m := NewManager(pool)
	sj, err := m.Submit(JobSpec{ID: "bal", Config: cfgBalanced(), Nodes: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The second host's cap writes fail persistently (retries included).
	bad := sj.Job.Hosts[1].Node
	bad.Sockets()[0].Dev.SetFault(msr.MSRPkgPowerLimit, errors.New("write fault"))
	// The settle hook runs before the swap, while the failed host is still
	// in place.
	swaps := 0
	m.BeforeSwap = func(got *ScheduledJob) {
		swaps++
		if got != sj || got.Job.Hosts[1].Node != bad {
			t.Error("BeforeSwap did not see the job with its failed host in place")
		}
	}

	alloc, err := m.Plan(policy.MixedAdaptive{}, 6*200*units.Watt, db)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Apply(alloc); err != nil {
		t.Fatalf("Apply = %v, want spare swap instead of failure", err)
	}
	if sj.Job.Hosts[1].Node == bad {
		t.Error("faulty host still in the job")
	}
	if swaps != 1 {
		t.Errorf("BeforeSwap fired %d times, want 1", swaps)
	}
	if q := m.Quarantined(); len(q) != 1 || q[0] != bad {
		t.Errorf("quarantined = %v, want the faulty node", q)
	}
	// Two spares remained free before the swap; one was consumed.
	if m.FreeNodes() != 1 {
		t.Errorf("free = %d, want 1", m.FreeNodes())
	}
	// The job still runs end to end on the repaired host set.
	if _, err := m.RunAll(5); err != nil {
		t.Fatal(err)
	}
}

// TestCapBatchRecordsChangedJobOnce pins that a batch records a job whose
// caps moved once, however many of its hosts were rewritten, and that the
// commit reports it as changed.
func TestCapBatchRecordsChangedJobOnce(t *testing.T) {
	m := NewManager(testPool(t, 8))
	m.Incremental = true
	sj, err := m.Submit(JobSpec{ID: "wide", Config: cfgBalanced(), Nodes: 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	caps := make([]units.Power, len(sj.Job.Hosts))
	for i := range caps {
		caps[i] = 180*units.Watt + units.Power(i)
	}
	b := m.NewCapBatch()
	if err := b.ApplyCaps(sj, 0, caps); err != nil {
		t.Fatal(err)
	}
	if got := b.NumChanged(); got != 1 {
		t.Errorf("NumChanged = %d after rewriting %d hosts, want 1", got, len(caps))
	}
	m.CommitCapBatches([]*CapBatch{b})
	if ch := m.TakeChangedJobs(); len(ch) != 1 || !ch["wide"] {
		t.Errorf("changed jobs = %v, want just wide", ch)
	}
	// Unchanged caps are skipped and record nothing.
	b.Reset()
	if err := b.ApplyCaps(sj, 0, caps); err != nil {
		t.Fatal(err)
	}
	if got := b.NumChanged(); got != 0 {
		t.Errorf("NumChanged = %d for unchanged caps, want 0", got)
	}
}

func TestDrainAndRejoin(t *testing.T) {
	pool := testPool(t, 4)
	m := NewManager(pool)
	sj, err := m.Submit(JobSpec{ID: "a", Config: cfgBalanced(), Nodes: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	held := sj.Job.Hosts[0].Node.ID
	holder, wasHeld := m.Drain(held, "crash")
	if !wasHeld || holder != sj {
		t.Fatalf("Drain(%s) = %v/%v, want the holding job", held, holder, wasHeld)
	}
	free := pool[3].ID
	if _, wasHeld := m.Drain(free, "crash"); wasHeld {
		t.Error("draining a free node reported a holder")
	}
	if len(m.Quarantined()) != 2 {
		t.Fatalf("quarantined = %d, want 2", len(m.Quarantined()))
	}
	if !m.Rejoin(free) {
		t.Error("healthy node failed to rejoin")
	}
	if m.Rejoin("no-such-node") {
		t.Error("unknown node rejoined")
	}
	if len(m.Quarantined()) != 1 {
		t.Errorf("quarantined = %d after rejoin, want 1", len(m.Quarantined()))
	}
}
