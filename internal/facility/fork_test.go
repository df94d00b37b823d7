package facility

import (
	"context"
	"errors"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"powerstack/internal/cluster"
	"powerstack/internal/fault"
	"powerstack/internal/node"
	"powerstack/internal/obs"
	"powerstack/internal/units"
)

// straightRun runs cfg on a pool of its own from start to horizon and
// returns the Result with the Snapshot taken at the horizon.
func straightRun(t *testing.T, cfg Config) (*Result, string) {
	t.Helper()
	cfg.Nodes = cluster.NewPoolState(cfg.Nodes).Nodes()
	in, err := NewInstance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Start(); err != nil {
		t.Fatal(err)
	}
	return finishRun(t, in)
}

// finishRun steps in to its horizon and closes it, returning the Result
// and the Snapshot taken at the horizon.
func finishRun(t *testing.T, in *Instance) (*Result, string) {
	t.Helper()
	if err := in.Step(context.Background(), in.Horizon()); err != nil {
		t.Fatal(err)
	}
	sn := snapshotJSON(t, in.Snapshot())
	res, err := in.Close()
	if err != nil {
		t.Fatal(err)
	}
	return res, sn
}

// TestForkMatchesStraightRun is the fork property: an instance stepped to a
// random instant and forked onto a copy of its pool under a response
// continues exactly as a straight run under that response — the same
// Result (reflect.DeepEqual) and the same Snapshot JSON at the horizon —
// and the original, continued after the fork, still matches its own
// straight run. Fork times fall before, one nanosecond before, at and
// after the onset of a budget drop, and anywhere in runs whose budget
// never changes, under the random fault plans of
// TestConstantBudgetSharesAcrossEmergencies. Before the onset the original
// runs another response than the fork: the response acts only from the
// onset on, so the fork may still choose.
func TestForkMatchesStraightRun(t *testing.T) {
	responses := []EmergencyPolicy{EmergencyPreempt, EmergencyThrottle, EmergencyKill}
	drop := fault.NewPlan(fault.Injection{Kind: fault.BudgetDrop, At: 10 * time.Minute, Duration: 10 * time.Minute, Factor: 0.3})
	plans := append(constantPlans(t), drop)
	rng := rand.New(rand.NewPCG(33, 1))
	for pi, plan := range plans {
		for ei, em := range responses {
			cfg := goldenConfig(t)
			cfg.Faults = plan
			cfg.Emergency = em
			cfg.CheckpointEvery = 100
			want, wantSnap := straightRun(t, cfg)

			onset, dynamic := cfg.Divergence()
			var times []time.Duration
			if dynamic {
				times = []time.Duration{
					time.Duration(rng.Int64N(int64(onset))), onset - 1, onset,
					onset + 1 + time.Duration(rng.Int64N(int64(cfg.Duration-onset))),
				}
			} else {
				times = []time.Duration{0, time.Duration(rng.Int64N(int64(cfg.Duration))), cfg.Duration}
			}
			for _, at := range times {
				other := responses[(ei+1)%len(responses)]
				if dynamic && at >= onset {
					other = em // the original has responded already
				}
				ocfg := cfg
				ocfg.Emergency = other
				otherWant, otherSnap := straightRun(t, ocfg)

				pool := cluster.NewPoolState(cfg.Nodes)
				ocfg.Nodes = pool.Nodes()
				orig, err := NewInstance(ocfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := orig.Start(); err != nil {
					t.Fatal(err)
				}
				if err := orig.Step(context.Background(), at); err != nil {
					t.Fatal(err)
				}
				spare := cluster.NewPoolState(cfg.Nodes)
				if err := spare.CopyFrom(pool); err != nil {
					t.Fatal(err)
				}
				fork, err := orig.Fork(spare.Nodes(), em, obs.SpanContext{})
				if err != nil {
					t.Fatal(err)
				}
				if got, wantNow := snapshotJSON(t, fork.Snapshot()), snapshotJSON(t, orig.Snapshot()); got != wantNow {
					t.Fatalf("plan %d %s fork at %v: the fork's snapshot differs from the original's\nfork: %s\norig: %s", pi, em, at, got, wantNow)
				}
				// Step the two in alternating one-tick chunks, so state they
				// shared would be written by both in turn.
				for now := at; now < cfg.Duration; {
					now = min(now+cfg.Tick, cfg.Duration)
					for _, in := range []*Instance{orig, fork} {
						if err := in.Step(context.Background(), now); err != nil {
							t.Fatal(err)
						}
					}
				}
				gotOther, gotOtherSnap := finishRun(t, orig)
				got, gotSnap := finishRun(t, fork)
				if !reflect.DeepEqual(got, want) || gotSnap != wantSnap {
					t.Fatalf("plan %d %s fork at %v: fork differs from the straight run\nfork:     %+v\nstraight: %+v\nfork snapshot:     %s\nstraight snapshot: %s",
						pi, em, at, got, want, gotSnap, wantSnap)
				}
				if !reflect.DeepEqual(gotOther, otherWant) || gotOtherSnap != otherSnap {
					t.Fatalf("plan %d: the original (%s) forked at %v differs from its straight run", pi, other, at)
				}
			}
		}
	}
}

// TestForkLifecycle pins Fork's refusals and the copy's lifecycle: only a
// started, unclosed instance forks, the target must be a same-size pool
// of the same nodes, the response must be known, and a paused instance
// forks paused.
func TestForkLifecycle(t *testing.T) {
	cfg := goldenConfig(t)
	pool := cluster.NewPoolState(cfg.Nodes)
	spare := cluster.NewPoolState(cfg.Nodes)
	cfg.Nodes = pool.Nodes()
	in, err := NewInstance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Fork(spare.Nodes(), EmergencyKill, obs.SpanContext{}); !errors.Is(err, ErrInstanceNotStarted) {
		t.Errorf("fork before Start: %v, want ErrInstanceNotStarted", err)
	}
	if err := in.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Fork(spare.Nodes(), "shrug", obs.SpanContext{}); err == nil {
		t.Error("fork under an unknown response succeeded")
	}
	if _, err := in.Fork(spare.Nodes()[1:], EmergencyKill, obs.SpanContext{}); err == nil {
		t.Error("fork onto a smaller pool succeeded")
	}
	swapped := append(spare.Nodes()[1:2:2], spare.Nodes()[0])
	swapped = append(swapped, spare.Nodes()[2:]...)
	if _, err := in.Fork(swapped, EmergencyKill, obs.SpanContext{}); err == nil {
		t.Error("fork onto reordered nodes succeeded")
	}
	if err := in.Pause(); err != nil {
		t.Fatal(err)
	}
	if err := spare.CopyFrom(pool); err != nil {
		t.Fatal(err)
	}
	fork, err := in.Fork(spare.Nodes(), EmergencyKill, obs.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	if fork.State() != InstancePaused {
		t.Errorf("fork of a paused instance is %s", fork.State())
	}
	if _, err := in.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Fork(spare.Nodes(), EmergencyKill, obs.SpanContext{}); !errors.Is(err, ErrInstanceClosed) {
		t.Errorf("fork after Close: %v, want ErrInstanceClosed", err)
	}
	// The fork outlives its original.
	if err := fork.Resume(); err != nil {
		t.Fatal(err)
	}
	if err := fork.Step(context.Background(), fork.Horizon()); err != nil {
		t.Fatal(err)
	}
	if _, err := fork.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestForkTakesItsOwnCommands pins that live commands after a fork reach
// only the instance they are given to: the original and the fork each get
// a different budget step and a different deferred injection, and only the
// original a tenant quota that refuses its injection, and each ends as a
// straight run that got its commands at the fork instant.
func TestForkTakesItsOwnCommands(t *testing.T) {
	base := goldenConfig(t)
	const at = 7 * time.Minute
	wl := base.Workloads[0]
	commands := []func(*Instance) error{
		func(in *Instance) error {
			if err := in.ScheduleBudget(at+time.Minute, base.SystemBudget/4); err != nil {
				return err
			}
			if err := in.SetTenantQuota("acme", 300*units.Watt); err != nil {
				return err
			}
			_, err := in.Inject(at+2*time.Minute, Submission{ID: "orig", Tenant: "acme", Workload: wl, Nodes: 2, Iterations: 900})
			return err
		},
		func(in *Instance) error {
			if err := in.ScheduleBudget(at+3*time.Minute, base.SystemBudget*2); err != nil {
				return err
			}
			_, err := in.Inject(at+time.Minute, Submission{ID: "fork", Tenant: "acme", Workload: wl, Nodes: 3, Iterations: 1500})
			return err
		},
	}
	start := func(nodes []*node.Node) *Instance {
		cfg := base
		cfg.Nodes = nodes
		in, err := NewInstance(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := in.Start(); err != nil {
			t.Fatal(err)
		}
		// Live steps and deferred injections from before the fork leave
		// spare capacity in the slices that hold them, which a shared
		// backing array would let the two sides write over.
		for i := time.Duration(0); i < 3; i++ {
			if err := in.ScheduleBudget(20*time.Minute+i, base.SystemBudget*units.Power(9-i)/10); err != nil {
				t.Fatal(err)
			}
			if _, err := in.Inject(25*time.Minute+i, Submission{Workload: wl, Nodes: 2, Iterations: 300}); err != nil {
				t.Fatal(err)
			}
		}
		if err := in.Step(context.Background(), at); err != nil {
			t.Fatal(err)
		}
		return in
	}
	var want [2]*Result
	for k, cmd := range commands {
		in := start(cluster.NewPoolState(base.Nodes).Nodes())
		if err := cmd(in); err != nil {
			t.Fatal(err)
		}
		want[k], _ = finishRun(t, in)
	}
	if reflect.DeepEqual(want[0], want[1]) {
		t.Fatal("the two command sets lead to the same result")
	}

	pool := cluster.NewPoolState(base.Nodes)
	orig := start(pool.Nodes())
	spare := cluster.NewPoolState(base.Nodes)
	if err := spare.CopyFrom(pool); err != nil {
		t.Fatal(err)
	}
	fork, err := orig.Fork(spare.Nodes(), base.Emergency, obs.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	for k, in := range []*Instance{orig, fork} {
		if err := commands[k](in); err != nil {
			t.Fatal(err)
		}
	}
	for now := at; now < base.Duration; {
		now = min(now+base.Tick, base.Duration)
		for _, in := range []*Instance{orig, fork} {
			if err := in.Step(context.Background(), now); err != nil {
				t.Fatal(err)
			}
		}
	}
	for k, in := range []*Instance{orig, fork} {
		if got, _ := finishRun(t, in); !reflect.DeepEqual(got, want[k]) {
			t.Errorf("instance %d differs from its straight run:\n  got:  %+v\n  want: %+v", k, got, want[k])
		}
	}
}
