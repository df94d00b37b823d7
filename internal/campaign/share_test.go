package campaign

import (
	"context"
	"testing"
	"time"

	"powerstack/internal/cluster"
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

// engineEvents sums the engine dispatches the sink counted over the
// facility's event kinds.
func engineEvents(s *obs.Sink) int {
	total := 0
	for _, kind := range []string{"arrival", "completion", "inject", "sample", "budget", "fault_crash", "fault_repair", "fault_slow"} {
		total += int(s.Metrics.Counter(obs.MetricEngineEvents, "kind", kind).Value())
	}
	return total
}

// prefixEvents is how many engine events the scenario's facility run
// dispatches up to and including virtual time at, read from a live
// Snapshot.
func prefixEvents(t *testing.T, r *Runner, cfg Config, sc Scenario, at time.Duration) int {
	t.Helper()
	in, err := facility.NewInstance(r.facilityConfig(&cfg, sc, obs.SpanContext{}, cluster.NewPoolState(r.Nodes)))
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Start(); err != nil {
		t.Fatal(err)
	}
	if err := in.Step(context.Background(), at); err != nil {
		t.Fatal(err)
	}
	n := in.Snapshot().EventsDispatched
	if _, err := in.Close(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestShockLaneSharesPrefix pins the grouping rule on lanes whose budget
// changes. A shock lane swept over the three responses dispatches, per
// seed, one prefix — the events up to one nanosecond before the drop —
// plus one suffix per response, and its report equals the three
// single-response matrices scenario by scenario. A same-value BudgetStep
// changes no budget, yet it still marks the divergence instant: the lane
// forks there, and every response gets the same result.
func TestShockLaneSharesPrefix(t *testing.T) {
	const nodes = 6
	r := testRunner(t, nodes)
	step := laneConfig(nodes, NamedFaultPlan{Name: "clean"})
	step.Base.BudgetSteps = []facility.BudgetStep{{At: 90 * time.Minute, Budget: step.Budgets[0]}}
	for _, tc := range []struct {
		name string
		cfg  Config
		at   time.Duration
	}{
		{"shock", laneConfig(nodes, shockLane()), time.Hour},
		{"same-value step", step, 90 * time.Minute},
	} {
		cfg := tc.cfg
		r.Obs = obs.New()
		swept, err := r.Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		seeds := len(cfg.Seeds)
		if got, want := spanCount(r.Obs, "facility_run"), len(allResponses)*seeds; got != want {
			t.Errorf("%s: %d facility runs, want one original and two forks per seed (%d)", tc.name, got, want)
		}
		got := engineEvents(r.Obs)

		// Each single-response matrix runs its own prefix.
		want := 0
		for ei, em := range allResponses {
			single := cfg
			single.Emergencies = []facility.EmergencyPolicy{em}
			r.Obs = obs.New()
			rep, err := r.Run(context.Background(), single)
			if err != nil {
				t.Fatal(err)
			}
			want += engineEvents(r.Obs)
			for si := 0; si < seeds; si++ {
				w := rep.Scenarios[si]
				g := swept.Scenarios[ei*seeds+si]
				w.Index = g.Index
				if g != w {
					t.Errorf("%s %s seed %d: swept matrix differs from single-response matrix:\n  swept:  %+v\n  single: %+v",
						tc.name, em, g.Seed, g, w)
				}
				if tc.name != "shock" && g.BudgetChanges+g.Preempted+g.Killed != 0 {
					t.Errorf("%s %s seed %d: a same-value step changed the budget or shed jobs: %+v", tc.name, em, g.Seed, g)
				}
			}
		}
		r.Obs = nil
		shared := 0
		for _, sc := range cfg.scenarios()[:seeds] {
			shared += prefixEvents(t, r, cfg, sc, tc.at-1)
		}
		if shared == 0 {
			t.Fatalf("%s: the prefix dispatched nothing", tc.name)
		}
		if wantShared := want - (len(allResponses)-1)*shared; got != wantShared {
			t.Errorf("%s: swept matrix dispatched %d engine events, want one prefix (%d per matrix) and three suffixes: %d",
				tc.name, got, shared, wantShared)
		}
	}
}
