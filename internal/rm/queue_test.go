package rm

import (
	"errors"
	"testing"

	"powerstack/internal/kernel"
	"powerstack/internal/units"
)

// schedEnv builds a manager, characterization DB, and scheduler.
func schedEnv(t *testing.T, poolNodes int, budget units.Power) (*Manager, *Scheduler) {
	t.Helper()
	db := charDB(t)
	m := NewManager(testPool(t, poolNodes))
	s, err := NewScheduler(m, db, budget)
	if err != nil {
		t.Fatal(err)
	}
	return m, s
}

func TestSchedulerValidation(t *testing.T) {
	db := charDB(t)
	m := NewManager(testPool(t, 2))
	if _, err := NewScheduler(nil, db, 100); err == nil {
		t.Error("nil manager accepted")
	}
	if _, err := NewScheduler(m, nil, 100); err == nil {
		t.Error("nil db accepted")
	}
	if _, err := NewScheduler(m, db, 0); err == nil {
		t.Error("zero budget accepted")
	}
	s, _ := NewScheduler(m, db, 1000)
	if _, err := s.Enqueue(JobSpec{ID: "x", Config: cfgBalanced(), Nodes: 0}); err == nil {
		t.Error("zero-node job accepted")
	}
	if _, err := s.Enqueue(JobSpec{ID: "x", Config: kernel.Config{Intensity: 7.77, Vector: kernel.YMM, Imbalance: 1}, Nodes: 1}); err == nil {
		t.Error("uncharacterized config accepted")
	}
}

func TestDispatchAdmitsWithinBothBudgets(t *testing.T) {
	// Pool of 8 nodes; power budget fits about two 3-node balanced jobs
	// (~230 W/node uncapped demand).
	_, s := schedEnv(t, 8, 6*235*units.Watt)
	for i := 0; i < 3; i++ {
		if _, err := s.Enqueue(JobSpec{ID: string(rune('a' + i)), Config: cfgBalanced(), Nodes: 3}); err != nil {
			t.Fatal(err)
		}
	}
	started, err := s.Dispatch(1)
	if err != nil {
		t.Fatal(err)
	}
	// Nodes would allow two jobs (6 of 8), power allows two: third waits.
	if len(started) != 2 {
		t.Fatalf("started = %d, want 2", len(started))
	}
	if len(s.Queue()) != 1 {
		t.Errorf("queued = %d, want 1", len(s.Queue()))
	}
	if s.CommittedPower() > 6*235*units.Watt {
		t.Errorf("committed %v exceeds budget", s.CommittedPower())
	}
}

func TestPowerBlocksEvenWithFreeNodes(t *testing.T) {
	// Plenty of nodes, almost no power: only one job may start.
	_, s := schedEnv(t, 12, 3*235*units.Watt)
	for i := 0; i < 3; i++ {
		if _, err := s.Enqueue(JobSpec{ID: string(rune('a' + i)), Config: cfgBalanced(), Nodes: 3}); err != nil {
			t.Fatal(err)
		}
	}
	started, err := s.Dispatch(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(started) != 1 {
		t.Fatalf("started = %d, want 1 (power-blocked)", len(started))
	}
}

func TestBackfillLetsSmallJobsPass(t *testing.T) {
	// Head job wants 6 nodes but only 4 are free after... start fresh:
	// pool 4 nodes. Head wants 6 (cannot ever fit now); a 2-node job
	// behind it fits and backfills.
	_, s := schedEnv(t, 4, 10*240*units.Watt)
	if _, err := s.Enqueue(JobSpec{ID: "big", Config: cfgBalanced(), Nodes: 6}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Enqueue(JobSpec{ID: "small", Config: cfgBalanced(), Nodes: 2}); err != nil {
		t.Fatal(err)
	}
	started, err := s.Dispatch(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(started) != 1 || started[0].Spec.ID != "small" {
		t.Fatalf("backfill failed: started %v", names(started))
	}
}

// TestCanDispatchBlockedHead pins CanDispatch against Dispatch with a
// blocked head and a job behind it that fits: CanDispatch agrees with what
// Dispatch then starts, admits nothing itself, and reports false once the
// queue is dispatch-stable.
func TestCanDispatchBlockedHead(t *testing.T) {
	m, s := schedEnv(t, 4, 10*240*units.Watt)
	if s.CanDispatch() {
		t.Fatal("empty queue reports a dispatchable job")
	}
	for _, spec := range []JobSpec{
		{ID: "big", Config: cfgBalanced(), Nodes: 6},
		{ID: "small", Config: cfgBalanced(), Nodes: 2},
	} {
		if _, err := s.Enqueue(spec); err != nil {
			t.Fatal(err)
		}
	}
	if !s.CanDispatch() {
		t.Fatal("CanDispatch = false behind a blocked head")
	}
	if len(s.Queue()) != 2 || m.FreeNodes() != 4 || s.CommittedPower() != 0 {
		t.Fatal("CanDispatch admitted a job")
	}
	started, err := s.Dispatch(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(started) != 1 {
		t.Fatalf("Dispatch started %v, want 1 job", names(started))
	}
	if s.CanDispatch() {
		t.Fatal("CanDispatch true right after Dispatch")
	}
}

func TestCompleteReleasesNodesAndPower(t *testing.T) {
	m, s := schedEnv(t, 6, 6*235*units.Watt)
	if _, err := s.Enqueue(JobSpec{ID: "a", Config: cfgBalanced(), Nodes: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Enqueue(JobSpec{ID: "b", Config: cfgBalanced(), Nodes: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Enqueue(JobSpec{ID: "c", Config: cfgBalanced(), Nodes: 3}); err != nil {
		t.Fatal(err)
	}
	started, err := s.Dispatch(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(started) != 2 {
		t.Fatalf("started = %d", len(started))
	}
	if m.FreeNodes() != 0 {
		t.Fatalf("free nodes = %d", m.FreeNodes())
	}
	// Completing one job frees its nodes and power; dispatch admits "c".
	if err := s.Complete(started[0]); err != nil {
		t.Fatal(err)
	}
	if m.FreeNodes() != 3 {
		t.Errorf("free nodes after completion = %d", m.FreeNodes())
	}
	next, err := s.Dispatch(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(next) != 1 || next[0].Spec.ID != "c" {
		t.Errorf("post-completion dispatch: %v", names(next))
	}
	if len(s.Queue()) != 0 {
		t.Errorf("queue = %d", len(s.Queue()))
	}
	// Completing an unknown job fails.
	if err := s.Complete(started[0]); err == nil {
		t.Error("double completion accepted")
	}
}

func TestFullQueueLifecycleRuns(t *testing.T) {
	// Admitted jobs can actually run through the policy/runtime path.
	m, s := schedEnv(t, 6, 6*240*units.Watt)
	if _, err := s.Enqueue(JobSpec{ID: "a", Config: cfgBalanced(), Nodes: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Enqueue(JobSpec{ID: "b", Config: cfgImbalanced(), Nodes: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Dispatch(1); err != nil {
		t.Fatal(err)
	}
	reports := runJobs(t, m, 5)
	if len(reports) != 2 {
		t.Fatalf("reports = %d", len(reports))
	}
	for _, r := range reports {
		if r.TotalEnergy <= 0 {
			t.Errorf("job %s recorded no energy", r.JobID)
		}
	}
}

func names(jobs []*ScheduledJob) []string {
	out := make([]string, len(jobs))
	for i, j := range jobs {
		out[i] = j.Spec.ID
	}
	return out
}

func TestSetBudgetRetargetsAdmission(t *testing.T) {
	m, s := schedEnv(t, 12, 6*235*units.Watt)
	for i := 0; i < 3; i++ {
		if _, err := s.Enqueue(JobSpec{ID: string(rune('a' + i)), Config: cfgBalanced(), Nodes: 3}); err != nil {
			t.Fatal(err)
		}
	}
	// Budget halved before any dispatch: only one job may start now.
	if err := s.SetBudget(3 * 235 * units.Watt); err != nil {
		t.Fatal(err)
	}
	if got := s.budget; got != 3*235*units.Watt {
		t.Fatalf("budget = %v after SetBudget", got)
	}
	started, err := s.Dispatch(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(started) != 1 {
		t.Fatalf("started = %d under halved budget, want 1", len(started))
	}
	// Raising the budget admits the rest on the next pass.
	if err := s.SetBudget(12 * 235 * units.Watt); err != nil {
		t.Fatal(err)
	}
	more, err := s.Dispatch(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(more) != 2 {
		t.Fatalf("started = %d after budget recovery, want 2", len(more))
	}
	// Enqueue's infeasibility floor tracks the live budget, not the
	// construction-time one.
	if err := s.SetBudget(1 * units.Watt); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Enqueue(JobSpec{ID: "z", Config: cfgBalanced(), Nodes: 3}); !errors.Is(err, ErrBudgetInfeasible) {
		t.Fatalf("enqueue under 1 W budget: got %v, want ErrBudgetInfeasible", err)
	}
	// Non-positive budgets are rejected and leave the budget untouched.
	if err := s.SetBudget(0); err == nil {
		t.Error("zero budget accepted")
	}
	if got := s.budget; got != 1*units.Watt {
		t.Errorf("failed SetBudget changed the budget to %v", got)
	}
	_ = m
}

func TestAbortReleasesWithoutRequeue(t *testing.T) {
	m, s := schedEnv(t, 6, 6*235*units.Watt)
	if _, err := s.Enqueue(JobSpec{ID: "a", Config: cfgBalanced(), Nodes: 3}); err != nil {
		t.Fatal(err)
	}
	started, err := s.Dispatch(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(started) != 1 {
		t.Fatalf("started = %d", len(started))
	}
	if started[0].demand == 0 {
		t.Fatal("started job has no recorded demand")
	}
	if err := s.Abort(started[0]); err != nil {
		t.Fatal(err)
	}
	if m.FreeNodes() != 6 {
		t.Errorf("free nodes after abort = %d, want 6", m.FreeNodes())
	}
	if s.CommittedPower() != 0 {
		t.Errorf("committed power after abort = %v, want 0", s.CommittedPower())
	}
	if len(s.Queue()) != 0 {
		t.Errorf("abort requeued the job: queue = %d", len(s.Queue()))
	}
	if started[0].demand != 0 {
		t.Errorf("aborted job still has demand %v", started[0].demand)
	}
	// Aborting an unknown job fails.
	if err := s.Abort(started[0]); err == nil {
		t.Error("double abort accepted")
	}
}
