package facility

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"powerstack/internal/kernel"
	"powerstack/internal/policy"
	"powerstack/internal/rm"
	"powerstack/internal/units"
)

// runChunked drives a config through the re-entrant Instance in uneven
// increments instead of one straight shot to the horizon.
func runChunked(t *testing.T, cfg Config, chunks []time.Duration) *Result {
	t.Helper()
	in, err := NewInstance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, until := range chunks {
		if err := in.Step(ctx, until); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Step(ctx, in.Horizon()); err != nil {
		t.Fatal(err)
	}
	if !in.Done() {
		t.Fatalf("instance not done after stepping to horizon (now %v)", in.Now())
	}
	res, err := in.Close()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunOverInstanceChunkedByteIdentical is the batch-vs-service
// equivalence pin: Run (one shot over the Instance) and a manually
// chunked Instance produce byte-identical Results — both engines, with
// and without a fault plan and a budget timeline. The chunk boundaries
// are deliberately hostile: repeated (no-op steps), tick-misaligned, and
// nanosecond-odd.
func TestRunOverInstanceChunkedByteIdentical(t *testing.T) {
	chunks := []time.Duration{
		time.Minute,
		7*time.Minute + 13*time.Second,
		7*time.Minute + 13*time.Second, // repeat: must be a no-op
		19*time.Minute + 999*time.Millisecond,
		25 * time.Minute,
	}
	variants := map[string]func(*Config){
		"plain": func(*Config) {},
		"faults_and_budget": func(c *Config) {
			c.Faults = goldenFaults()
			c.CheckpointEvery = 100
			c.BudgetSteps = []BudgetStep{
				{At: 10 * time.Minute, Budget: c.SystemBudget / 2},
				{At: 20 * time.Minute, Budget: c.SystemBudget},
			}
		},
	}
	// Subtests keep the "event/" prefix they had when a second core ran
	// beside the event core.
	for name, mutate := range variants {
		t.Run("event/"+name, func(t *testing.T) {
			oneShot := goldenConfig(t)
			mutate(&oneShot)
			want, err := Run(context.Background(), oneShot)
			if err != nil {
				t.Fatal(err)
			}
			chunkedCfg := goldenConfig(t) // fresh nodes: runs mutate them
			mutate(&chunkedCfg)
			got := runChunked(t, chunkedCfg, chunks)

			wantJSON, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			gotJSON, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wantJSON, gotJSON) {
				t.Errorf("chunked Instance diverged from Run:\n run: %s\n chunked: %s", wantJSON, gotJSON)
			}
		})
	}
}

// serviceConfig is a no-arrivals world: every job is an injection, the
// shape powerstackd hosts.
func serviceConfig(t *testing.T) (Config, []kernel.Config) {
	t.Helper()
	nodes, db, workloads := facilityEnv(t, 6)
	return Config{
		Nodes:           nodes,
		DB:              db,
		Policy:          policy.MixedAdaptive{},
		SystemBudget:    units.Power(len(nodes)) * 200 * units.Watt,
		DisableArrivals: true,
		CheckpointEvery: 50,
		Duration:        2 * time.Hour,
		Tick:            30 * time.Second,
		Seed:            5,
	}, workloads
}

// TestRaisedTenantQuotaStartsQueuedJob pins that a quota change is an
// admission event: a job queued only behind its tenant's quota starts at
// the instant the quota is raised, not at the next unrelated event (with
// arrivals off and long jobs, there is none for hours).
func TestRaisedTenantQuotaStartsQueuedJob(t *testing.T) {
	nodes, db, workloads := facilityEnv(t, 8)
	in, err := NewInstance(Config{
		Nodes:           nodes,
		DB:              db,
		Policy:          policy.MixedAdaptive{},
		SystemBudget:    units.Power(len(nodes)) * 200 * units.Watt,
		DisableArrivals: true,
		Duration:        12 * time.Hour,
		Tick:            30 * time.Second,
		Seed:            5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Start(); err != nil {
		t.Fatal(err)
	}
	if err := in.SetTenantQuota("acme", 600*units.Watt); err != nil {
		t.Fatal(err)
	}
	sub := Submission{Tenant: "acme", Workload: workloads[0], Nodes: 2, Iterations: 1_000_000}
	first, err := in.Inject(0, sub)
	if err != nil {
		t.Fatal(err)
	}
	second, err := in.Inject(0, sub)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Step(context.Background(), 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	if ji, _ := in.Job(first); ji.State != JobRunning {
		t.Fatalf("first acme job %s, want running", ji.State)
	}
	if ji, _ := in.Job(second); ji.State != JobQueued {
		t.Fatalf("second acme job %s, want queued behind the 600 W quota", ji.State)
	}
	if err := in.SetTenantQuota("acme", 4000*units.Watt); err != nil {
		t.Fatal(err)
	}
	if err := checkInvariants(in, nil); err != nil {
		t.Fatal(err)
	}
	ji, _ := in.Job(second)
	if ji.State != JobRunning || ji.StartedAt != in.Now() {
		t.Fatalf("after raising the quota at %v: second job %s, started at %v; want running from that instant",
			in.Now(), ji.State, ji.StartedAt)
	}
}

// TestInstanceServiceLifecycle exercises the daemon-shaped path on the
// event core: tenant quotas, immediate and deferred injections, a live
// budget drop triggering the emergency preemption, recovery resuming the
// checkpointed job, and the job/snapshot views throughout.
func TestInstanceServiceLifecycle(t *testing.T) {
	cfg, workloads := serviceConfig(t)
	in, err := NewInstance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	entry, err := cfg.DB.MustGet(workloads[0])
	if err != nil {
		t.Fatal(err)
	}
	pairDemand := entry.MonitorHostPower * 2 // a 2-node job's admission demand

	// acme's quota fits one 2-node job but not a 4-node one.
	if err := in.SetTenantQuota("acme", pairDemand*3/2); err != nil {
		t.Fatal(err)
	}
	sub := Submission{Tenant: "acme", Workload: workloads[0], Nodes: 2, Iterations: 300000}
	id1, err := in.Inject(0, sub)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Inject(0, Submission{Tenant: "acme", Workload: workloads[0], Nodes: 4, Iterations: 300000}); !errors.Is(err, rm.ErrTenantQuotaExceeded) {
		t.Fatalf("over-quota injection: err = %v, want ErrTenantQuotaExceeded", err)
	}
	if _, err := in.Inject(0, Submission{ID: id1, Tenant: "acme", Workload: workloads[0], Nodes: 1, Iterations: 10}); !errors.Is(err, ErrDuplicateJobID) {
		t.Fatalf("duplicate-ID injection: err = %v, want ErrDuplicateJobID", err)
	}
	// A second tenant, unpartitioned, plus a deferred submission.
	id2, err := in.Inject(0, Submission{Tenant: "beta", Workload: workloads[2], Nodes: 2, Iterations: 300000})
	if err != nil {
		t.Fatal(err)
	}
	idLater, err := in.Inject(10*time.Minute, Submission{Tenant: "beta", Workload: workloads[0], Nodes: 1, Iterations: 1500})
	if err != nil {
		t.Fatal(err)
	}

	if err := in.Step(ctx, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := checkInvariants(in, nil); err != nil {
		t.Fatal(err)
	}
	sn := in.Snapshot()
	if sn.Now != 5*time.Minute || sn.State != InstanceRunning {
		t.Fatalf("snapshot now/state = %v/%s", sn.Now, sn.State)
	}
	for _, id := range []string{id1, id2} {
		ji, ok := in.Job(id)
		if !ok || ji.State != JobRunning {
			t.Fatalf("job %s = %+v, want running", id, ji)
		}
		if ji.Remaining <= 0 || ji.Remaining >= ji.Iterations {
			t.Errorf("job %s remaining %d not in (0, %d)", id, ji.Remaining, ji.Iterations)
		}
	}
	if ji, ok := in.Job(idLater); !ok || ji.State != JobScheduled {
		t.Fatalf("deferred job %s before its time = %+v, want scheduled", idLater, ji)
	}
	if len(sn.Tenants) != 1 || sn.Tenants[0].Name != "acme" || sn.Tenants[0].Committed != pairDemand {
		t.Fatalf("tenant snapshot = %+v", sn.Tenants)
	}

	// Live budget drop to a sliver of the demand: the PR-7 emergency path
	// must preempt the newest-started job at its checkpoint.
	if err := in.ScheduleBudget(0, pairDemand/2); err != nil {
		t.Fatal(err)
	}
	if err := in.Step(ctx, 6*time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := checkInvariants(in, nil); err != nil {
		t.Fatal(err)
	}
	sn = in.Snapshot()
	if sn.BudgetChanges == 0 || sn.Preempted == 0 {
		t.Fatalf("live budget drop did not bite: changes %d, preempted %d", sn.BudgetChanges, sn.Preempted)
	}
	if sn.Budget != pairDemand/2 {
		t.Fatalf("snapshot budget = %v, want %v", sn.Budget, pairDemand/2)
	}

	// Recovery: budget back up, the preempted jobs resume from their
	// checkpoints, and the deferred injection lands at 10m.
	if err := in.ScheduleBudget(0, cfg.SystemBudget); err != nil {
		t.Fatal(err)
	}
	if err := in.Step(ctx, 15*time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := checkInvariants(in, nil); err != nil {
		t.Fatal(err)
	}
	sn = in.Snapshot()
	if sn.Resumed == 0 {
		t.Fatalf("no checkpoint resume after recovery: %+v", sn)
	}
	if ji, ok := in.Job(idLater); !ok || ji.State == JobRejected || ji.SubmittedAt != 10*time.Minute {
		t.Fatalf("deferred job after its time = %+v (ok=%v)", ji, ok)
	}

	res, err := in.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.Preempted == 0 || res.Resumed == 0 || res.Submitted < 3 {
		t.Fatalf("closed result missed the story: %+v", res)
	}
	if _, err := in.Close(); !errors.Is(err, ErrInstanceClosed) {
		t.Fatalf("second Close err = %v, want ErrInstanceClosed", err)
	}
	if err := in.Step(ctx, time.Hour); !errors.Is(err, ErrInstanceClosed) {
		t.Fatalf("Step after Close err = %v, want ErrInstanceClosed", err)
	}
	if _, err := in.Inject(0, sub); !errors.Is(err, ErrInstanceClosed) {
		t.Fatalf("Inject after Close err = %v, want ErrInstanceClosed", err)
	}
}

// TestInstanceLifecycleStates pins the state machine edges: not-started,
// pause/resume, and the paused-step refusal.
func TestInstanceLifecycleStates(t *testing.T) {
	// The subtest keeps the name it had when a second core ran beside it.
	t.Run("event", func(t *testing.T) {
		cfg, workloads := serviceConfig(t)
		in, err := NewInstance(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if err := in.Step(ctx, time.Minute); !errors.Is(err, ErrInstanceNotStarted) {
			t.Fatalf("Step before Start err = %v", err)
		}
		if _, err := in.Inject(0, Submission{Workload: workloads[0], Nodes: 1, Iterations: 10}); !errors.Is(err, ErrInstanceNotStarted) {
			t.Fatalf("Inject before Start err = %v", err)
		}
		if err := in.Start(); err != nil {
			t.Fatal(err)
		}
		if err := in.Start(); err == nil {
			t.Fatal("second Start accepted")
		}
		if err := in.Pause(); err != nil {
			t.Fatal(err)
		}
		if in.State() != InstancePaused {
			t.Fatalf("state = %s, want paused", in.State())
		}
		if err := in.Step(ctx, time.Minute); !errors.Is(err, ErrInstancePaused) {
			t.Fatalf("Step while paused err = %v", err)
		}
		// Injections while paused are legal and take effect now.
		if _, err := in.Inject(0, Submission{Workload: workloads[0], Nodes: 1, Iterations: 100}); err != nil {
			t.Fatal(err)
		}
		if err := in.Resume(); err != nil {
			t.Fatal(err)
		}
		if err := in.Step(ctx, time.Minute); err != nil {
			t.Fatal(err)
		}
		if in.Now() < time.Minute {
			t.Fatalf("now = %v after stepping to 1m", in.Now())
		}
		if _, err := in.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestInstanceInjectValidation covers the synchronous admission checks.
func TestInstanceInjectValidation(t *testing.T) {
	cfg, workloads := serviceConfig(t)
	in, err := NewInstance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Start(); err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	cases := map[string]Submission{
		"zero nodes":      {Workload: workloads[0], Nodes: 0, Iterations: 10},
		"too many nodes":  {Workload: workloads[0], Nodes: len(cfg.Nodes) + 1, Iterations: 10},
		"zero iterations": {Workload: workloads[0], Nodes: 1, Iterations: 0},
		"uncharacterized": {Workload: kernel.Config{Intensity: 3.14, Vector: kernel.Scalar, Imbalance: 1}, Nodes: 1, Iterations: 10},
	}
	for name, sub := range cases {
		if _, err := in.Inject(0, sub); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Generated IDs are sequential and disjoint from arrival IDs.
	id, err := in.Inject(0, Submission{Workload: workloads[0], Nodes: 1, Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	if id != "ext00001" {
		t.Errorf("generated ID = %q, want ext00001", id)
	}
}

// TestOversizedSubmissionDoesNotLivelock is the regression for a job so
// long that its completion time overflows: Iterations × iteration time
// wrapped negative, the engine clamped the completion to now, and the job
// re-aimed at the same instant forever, so Step never returned. The due
// time must saturate instead — the job simply never finishes within the
// horizon — and virtual time must advance.
func TestOversizedSubmissionDoesNotLivelock(t *testing.T) {
	cfg, workloads := serviceConfig(t)
	in, err := NewInstance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Start(); err != nil {
		t.Fatal(err)
	}
	id, err := in.Inject(0, Submission{Workload: workloads[0], Nodes: 2, Iterations: 1 << 50})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := in.Step(ctx, 2*time.Minute); err != nil {
		t.Fatalf("Step with an oversized job running: %v (virtual time %v)", err, in.Now())
	}
	if in.Now() != 2*time.Minute {
		t.Fatalf("virtual time = %v, want 2m", in.Now())
	}
	ji, ok := in.Job(id)
	if !ok || ji.State != JobRunning || ji.Remaining >= 1<<50 {
		t.Fatalf("oversized job = %+v, want running with progress", ji)
	}
	if _, err := in.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGeneratedJobIDsSkipInjectedIDs pins that neither ID generator hands
// out an ID an explicit injection already holds: a Poisson arrival skips
// an injected "jobNNNNN", and a generated injection ID skips an injected
// "extNNNNN", whether that injection is queued or still deferred. Before,
// the arrival took the injected job's ID and the next replan failed the
// run with two cap sets for one job, and a generated injection collided.
func TestGeneratedJobIDsSkipInjectedIDs(t *testing.T) {
	t.Run("arrival", func(t *testing.T) {
		nodes, db, workloads := facilityEnv(t, 8)
		in, err := NewInstance(baseConfig(nodes, db, workloads))
		if err != nil {
			t.Fatal(err)
		}
		if err := in.Start(); err != nil {
			t.Fatal(err)
		}
		if _, err := in.Inject(0, Submission{ID: "job00001", Workload: workloads[0], Nodes: 2, Iterations: 1_000_000}); err != nil {
			t.Fatal(err)
		}
		if err := in.Step(context.Background(), 10*time.Minute); err != nil {
			t.Fatal(err)
		}
		if err := checkInvariants(in, nil); err != nil {
			t.Fatal(err)
		}
		if ji, _ := in.Job("job00001"); ji.Iterations != 1_000_000 {
			t.Fatalf("job00001 = %+v, want the injected job", ji)
		}
		if _, ok := in.Job("job00002"); !ok {
			t.Fatal("the first arrival did not take the next free ID, job00002")
		}
	})
	t.Run("injection", func(t *testing.T) {
		cfg, workloads := serviceConfig(t)
		in, err := NewInstance(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := in.Start(); err != nil {
			t.Fatal(err)
		}
		sub := Submission{Workload: workloads[0], Nodes: 2, Iterations: 1_000_000}
		queued, deferred := sub, sub
		queued.ID, deferred.ID = "ext00001", "ext00002"
		if _, err := in.Inject(0, queued); err != nil {
			t.Fatal(err)
		}
		if _, err := in.Inject(5*time.Minute, deferred); err != nil {
			t.Fatal(err)
		}
		id, err := in.Inject(0, sub)
		if err != nil {
			t.Fatal(err)
		}
		if id != "ext00003" {
			t.Fatalf("generated ID %s, want ext00003 past both injected IDs", id)
		}
		if err := in.Step(context.Background(), 10*time.Minute); err != nil {
			t.Fatal(err)
		}
		if err := checkInvariants(in, nil); err != nil {
			t.Fatal(err)
		}
		if sn := in.Snapshot(); sn.Submitted != 3 {
			t.Fatalf("submitted %d, want all three injections", sn.Submitted)
		}
	})
}

// TestSnapshotCountsEventsLive pins that a Snapshot reports the events the
// engine has dispatched so far, not only after Close: a mid-run Snapshot
// counts the prefix, which a Close at that instant then reports as the
// Result's count, and a later Snapshot counts more.
func TestSnapshotCountsEventsLive(t *testing.T) {
	in, err := NewInstance(goldenConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Start(); err != nil {
		t.Fatal(err)
	}
	if n := in.Snapshot().EventsDispatched; n != 0 {
		t.Fatalf("%d events before the first step", n)
	}
	if err := in.Step(context.Background(), 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	mid := in.Snapshot().EventsDispatched
	if mid <= 300 { // 300 samples alone by 10 minutes at a 2 s tick
		t.Fatalf("mid-run snapshot counts %d events", mid)
	}
	if err := in.Step(context.Background(), 20*time.Minute); err != nil {
		t.Fatal(err)
	}
	later := in.Snapshot().EventsDispatched
	if later <= mid {
		t.Errorf("snapshot at 20m counts %d events, at 10m %d", later, mid)
	}
	res, err := in.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.EventsDispatched != later {
		t.Errorf("Close reports %d events, the last snapshot %d", res.EventsDispatched, later)
	}
}
