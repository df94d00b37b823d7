package campaign

import (
	"context"
	"testing"
	"time"

	"powerstack/internal/facility"
	"powerstack/internal/fault"
	"powerstack/internal/obs"
	"powerstack/internal/policy"
)

var allResponses = []facility.EmergencyPolicy{
	facility.EmergencyPreempt, facility.EmergencyThrottle, facility.EmergencyKill,
}

// spanCount reads how many spans of the given name completed on the sink:
// "facility_run" counts facility runs, "scenario" counts scenarios.
func spanCount(s *obs.Sink, name string) int {
	return int(s.Metrics.Counter(obs.MetricSpans, "name", name).Value())
}

// laneConfig is a one-policy matrix over the given fault lanes and every
// emergency response, with jobs long enough that a budget drop strands
// running ones and the responses have victims to shed.
func laneConfig(nodes int, lanes ...NamedFaultPlan) Config {
	cfg := testConfig(nodes)
	cfg.Seeds = []uint64{1, 2}
	cfg.Policies = []policy.Policy{policy.MixedAdaptive{}}
	cfg.Interarrivals = []time.Duration{5 * time.Minute}
	cfg.Base.MinJobIterations = 20000
	cfg.Base.MaxJobIterations = 60000
	cfg.Base.CheckpointEvery = 25
	cfg.FaultPlans = lanes
	cfg.Emergencies = allResponses
	return cfg
}

func shockLane() NamedFaultPlan {
	return NamedFaultPlan{Name: "shock", Plan: fault.NewPlan(
		fault.Injection{Kind: fault.BudgetDrop, At: time.Hour, Duration: time.Hour, Factor: 0.15},
	)}
}

func chaosLane(r *Runner) NamedFaultPlan {
	ids := make([]string, len(r.Nodes))
	for i, n := range r.Nodes {
		ids[i] = n.ID
	}
	return NamedFaultPlan{Name: "chaos", Plan: fault.Generate(ids, fault.GenOptions{
		Seed: 5, Horizon: 4 * time.Hour, MSRWriteFaults: 1, Crashes: 1, RepairFraction: 1, Dropouts: 2, SlowNodes: 1,
	})}
}

// TestSharedMatrixMatchesSingleResponses checks sharing against runs that
// share nothing: a clean + chaos + shock matrix swept over all three
// responses must equal, scenario by scenario, the three matrices that each
// sweep one response (one response per matrix, so no run is shared).
func TestSharedMatrixMatchesSingleResponses(t *testing.T) {
	const nodes = 6
	r := testRunner(t, nodes)
	r.Obs = obs.New()
	cfg := laneConfig(nodes, NamedFaultPlan{Name: "clean"}, chaosLane(r), shockLane())
	cfg.Parallelism = 2
	swept, err := r.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Clean and chaos lanes run once per seed; the shock lane once per
	// seed and response.
	seeds, lanes := len(cfg.Seeds), len(cfg.FaultPlans)
	if got, want := spanCount(r.Obs, "facility_run"), 2*seeds+len(allResponses)*seeds; got != want {
		t.Errorf("facility runs = %d, want %d", got, want)
	}
	if got, want := spanCount(r.Obs, "scenario"), len(swept.Scenarios); got != want {
		t.Errorf("scenario spans = %d, want one per scenario (%d)", got, want)
	}

	// The lanes bite: chaos degrades nodes, the shock sheds jobs.
	chaosHits, shed := 0, 0
	for _, s := range swept.Scenarios {
		switch s.Fault {
		case "chaos":
			chaosHits += s.Quarantined + s.Requeued
		case "shock":
			shed += s.Preempted + s.Killed
		}
	}
	if chaosHits == 0 || shed == 0 {
		t.Fatalf("lanes too mild: chaos quarantined/requeued %d, shock shed %d", chaosHits, shed)
	}

	r.Obs = nil
	for ei, em := range allResponses {
		single := cfg
		single.Emergencies = []facility.EmergencyPolicy{em}
		rep, err := r.Run(context.Background(), single)
		if err != nil {
			t.Fatal(err)
		}
		for li := 0; li < lanes; li++ {
			for si := 0; si < seeds; si++ {
				want := rep.Scenarios[li*seeds+si]
				got := swept.Scenarios[(li*len(allResponses)+ei)*seeds+si]
				want.Index = got.Index // matrix position legitimately differs
				if got != want {
					t.Errorf("%s lane %s seed %d: swept matrix differs from single-response matrix:\n  swept:  %+v\n  single: %+v",
						em, got.Fault, got.Seed, got, want)
				}
			}
		}
	}
}

// TestShockLaneSharesNothing pins that a lane whose budget changes never
// shares a run: every scenario of the shock lane, and every scenario of a
// matrix whose base carries a budget step (even a same-value one), gets its
// own facility run.
func TestShockLaneSharesNothing(t *testing.T) {
	const nodes = 6
	r := testRunner(t, nodes)

	r.Obs = obs.New()
	cfg := laneConfig(nodes, shockLane())
	rep, err := r.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := spanCount(r.Obs, "facility_run"); got != len(rep.Scenarios) {
		t.Errorf("shock lane: %d facility runs for %d scenarios", got, len(rep.Scenarios))
	}

	r.Obs = obs.New()
	cfg = laneConfig(nodes, NamedFaultPlan{Name: "clean"})
	cfg.Base.BudgetSteps = []facility.BudgetStep{{At: time.Hour, Budget: cfg.Budgets[0]}}
	rep, err = r.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := spanCount(r.Obs, "facility_run"); got != len(rep.Scenarios) {
		t.Errorf("stepped budget: %d facility runs for %d scenarios", got, len(rep.Scenarios))
	}
}
