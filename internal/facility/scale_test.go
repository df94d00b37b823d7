package facility

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"powerstack/internal/cluster"
	"powerstack/internal/fault"
	"powerstack/internal/units"
)

// resultJSON canonicalizes a Result for byte comparison.
func resultJSON(t *testing.T, res *Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// runScaleCase runs the golden scenario on the given pool with the given
// scale mode and fault plan.
func runScaleCase(t *testing.T, cfg Config, mode string, faults *fault.Plan) *Result {
	t.Helper()
	cfg.ScaleMode = mode
	cfg.Faults = faults
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSoAPoolByteIdenticalToClonePool pins the in-place pool reset the
// campaign engine runs every scenario on: a PoolState pool that already
// ran a faulted scenario (armed MSR faults, crashes, degradation, drained
// energy counters), then Restore()d, produces a Result byte-identical to
// the same run on a fresh ClonePool of the source — faults on and off.
func TestSoAPoolByteIdenticalToClonePool(t *testing.T) {
	src, db, workloads := facilityEnv(t, 10)
	for _, withFaults := range []bool{false, true} {
		var faults *fault.Plan
		if withFaults {
			faults = goldenFaults()
		}
		cloneCfg := baseConfig(cluster.ClonePool(src), db, workloads)
		cloneRes := runScaleCase(t, cloneCfg, ScaleAuto, faults)

		ps := cluster.NewPoolState(src)
		soaCfg := baseConfig(ps.Nodes(), db, workloads)
		runScaleCase(t, soaCfg, ScaleAuto, fault.NewPlan(
			fault.Injection{Kind: fault.NodeCrash, Node: "quartz0001", At: 5 * time.Minute, RepairAfter: 10 * time.Minute},
			fault.Injection{Kind: fault.SlowNode, Node: "quartz0002", At: 7 * time.Minute, Duration: 8 * time.Minute, Factor: 1.4},
			fault.Injection{Kind: fault.MSRWriteFault, Node: "quartz0003", After: 3},
		))
		if err := ps.Restore(); err != nil {
			t.Fatal(err)
		}
		soaRes := runScaleCase(t, soaCfg, ScaleAuto, faults)

		if a, b := resultJSON(t, cloneRes), resultJSON(t, soaRes); a != b {
			t.Errorf("faults %v: restored pool diverged from ClonePool\nclone:    %s\nrestored: %s", withFaults, a, b)
		}
	}
}

// TestScaleOnSmallRun exercises the hierarchical replan end to end at test
// scale: the run completes, jobs flow, power stays
// within the budget envelope the policy is handed.
func TestScaleOnSmallRun(t *testing.T) {
	src, db, workloads := facilityEnv(t, 32)
	cfg := baseConfig(cluster.ClonePool(src), db, workloads)
	cfg.JobSizes = []int{2, 4, 8}
	res := runScaleCase(t, cfg, ScaleOn, nil)
	if res.Completed == 0 {
		t.Fatal("scale-mode run completed no jobs")
	}
	if res.MeanPower <= 0 {
		t.Fatalf("mean power %v", res.MeanPower)
	}
	// The hierarchy grants watts down the tree; the facility draw must
	// stay near the budget (TDP-capped spin slack allows small overshoot).
	if res.PeakPower > cfg.SystemBudget+units.Power(len(cfg.Nodes))*20*units.Watt {
		t.Fatalf("peak power %v far above budget %v", res.PeakPower, cfg.SystemBudget)
	}
}
