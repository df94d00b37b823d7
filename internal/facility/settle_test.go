package facility

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"powerstack/internal/cluster"
	"powerstack/internal/fault"
	"powerstack/internal/msr"
	"powerstack/internal/node"
	"powerstack/internal/policy"
)

// poolWords snapshots every register word of a pool.
func poolWords(nodes []*node.Node) []uint64 {
	var out []uint64
	for _, n := range nodes {
		out = n.SnapshotWords(out)
	}
	return out
}

// remainingView renders the running jobs' progress as reported by both
// status surfaces, Snapshot and Jobs.
func remainingView(in *Instance) string {
	var out string
	for _, r := range in.Snapshot().Running {
		out += fmt.Sprintf("%s:%d ", r.ID, r.Remaining)
	}
	for _, ji := range in.Jobs() {
		if ji.State == JobRunning {
			out += fmt.Sprintf("%s=%d ", ji.ID, ji.Remaining)
		}
	}
	return out
}

// nodeByID finds a pool node.
func nodeByID(t *testing.T, nodes []*node.Node, id string) *node.Node {
	t.Helper()
	for _, n := range nodes {
		if n.ID == id {
			return n
		}
	}
	t.Fatalf("no node %s in pool", id)
	return nil
}

// TestLazySettlementMatchesEager pins the settlement invariant end to end.
// One instance settles lazily; its twin is additionally forced to settle
// every running job at odd instants about a second apart, which puts a
// settlement shortly before nearly every event. At every
// instant the lazy instance's reported Remaining must equal what the
// eagerly settled twin reports, and reporting must not credit anything
// (the lazy pool's registers are unchanged by the status calls). Mid-run,
// a stuck power-limit register on a running job's host makes the next
// replan swap a spare in while the lazy twin still owes that job uncredited
// iterations — the settle-before-swap path. At the horizon both Results
// must be byte-identical, and once both settle every register word of both
// pools must match: telescoping credit makes the settlement schedule
// unobservable.
func TestLazySettlementMatchesEager(t *testing.T) {
	type variant struct {
		name string
		cfg  func() Config
	}
	variants := []variant{
		{"flat_faults_budget", func() Config {
			cfg := goldenConfig(t)
			// Crashes on held hosts drain running jobs mid-iteration.
			cfg.Faults = fault.NewPlan(
				fault.Injection{Kind: fault.NodeCrash, Node: "quartz0001", At: 5 * time.Minute, RepairAfter: 10 * time.Minute},
				fault.Injection{Kind: fault.SlowNode, Node: "quartz0002", At: 7 * time.Minute, Duration: 8 * time.Minute, Factor: 1.4},
				fault.Injection{Kind: fault.NodeCrash, Node: "quartz0005", At: 8 * time.Minute, RepairAfter: 5 * time.Minute},
				fault.Injection{Kind: fault.NodeCrash, Node: "quartz0007", At: 11 * time.Minute, RepairAfter: 5 * time.Minute},
				fault.Injection{Kind: fault.NodeCrash, Node: "quartz0004", At: 16 * time.Minute, RepairAfter: 5 * time.Minute},
				fault.Injection{Kind: fault.NodeCrash, Node: "quartz0008", At: 18 * time.Minute, RepairAfter: 5 * time.Minute},
				fault.Injection{Kind: fault.NodeCrash, Node: "quartz0006", At: 23 * time.Minute, RepairAfter: 5 * time.Minute},
				fault.Injection{Kind: fault.NodeCrash, Node: "quartz0009", At: 25 * time.Minute, RepairAfter: 3 * time.Minute},
			)
			cfg.CheckpointEvery = 100
			cfg.BudgetSteps = []BudgetStep{
				{At: 10 * time.Minute, Budget: cfg.SystemBudget / 2},
				{At: 20 * time.Minute, Budget: cfg.SystemBudget},
			}
			return cfg
		}},
	}
	src, db, workloads := facilityEnv(t, 24)
	variants = append(variants, variant{"scale_pipeline_faults", func() Config {
		cfg := baseConfig(cluster.ClonePool(src), db, workloads)
		cfg.JobSizes = []int{2, 4, 8}
		cfg.Parallelism = 2
		cfg.ScaleMode = ScaleOn
		cfg.Faults = pipelineFaults()
		return cfg
	}})

	ctx := context.Background()
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			lazyCfg, eagerCfg := v.cfg(), v.cfg()
			lazy, err := NewInstance(lazyCfg)
			if err != nil {
				t.Fatal(err)
			}
			eager, err := NewInstance(eagerCfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := lazy.Start(); err != nil {
				t.Fatal(err)
			}
			if err := eager.Start(); err != nil {
				t.Fatal(err)
			}
			settleAll := eager.st
			checked, swapped := 0, false
			for at := time.Second + 3; at < lazy.Horizon(); at += time.Second + 1234567 {
				if err := lazy.Step(ctx, at); err != nil {
					t.Fatal(err)
				}
				if err := eager.Step(ctx, at); err != nil {
					t.Fatal(err)
				}
				before := poolWords(lazyCfg.Nodes)
				got := remainingView(lazy)
				if !slices.Equal(before, poolWords(lazyCfg.Nodes)) {
					t.Fatalf("at %v: reporting Remaining credited registers", at)
				}
				settleAll.advanceAll(eager.Now())
				if want := remainingView(eager); got != want {
					t.Fatalf("at %v: lazy reports %s, eager settlement %s", at, got, want)
				}
				if len(lazy.Snapshot().Running) > 0 {
					checked++
				}
				if swapped || at < 12*time.Minute || lazy.Snapshot().FreeNodes == 0 {
					continue
				}
				lazySim := lazy.st
				if len(lazySim.active) == 0 || lazySim.active[0].due(at) == 0 {
					continue
				}
				// The policy swap replans; on the scale path a host whose cap
				// does not move is not rewritten, so alternate policies and
				// retry at later instants until the stuck host is hit.
				host := lazySim.active[0].sj.Job.Hosts[0].Node.ID
				pol := policy.Policy(policy.StaticCaps{})
				if _, static := lazy.Policy().(policy.StaticCaps); static {
					pol = policy.MixedAdaptive{}
				}
				q := lazy.Snapshot().Quarantined
				for _, pair := range []struct {
					in  *Instance
					cfg Config
				}{{lazy, lazyCfg}, {eager, eagerCfg}} {
					n := nodeByID(t, pair.cfg.Nodes, host)
					for _, su := range n.Sockets() {
						su.Dev.SetFault(msr.MSRPkgPowerLimit, errors.New("stuck limit register"))
					}
					if err := pair.in.SetPolicy(pol); err != nil {
						t.Fatal(err)
					}
					if swapped = pair.in.Snapshot().Quarantined > q; !swapped {
						for _, su := range n.Sockets() {
							su.Dev.SetFault(msr.MSRPkgPowerLimit, nil)
						}
					}
				}
			}
			if checked < 10 || !swapped {
				t.Fatalf("%d instants had running jobs; spare swapped: %v", checked, swapped)
			}
			for _, in := range []*Instance{lazy, eager} {
				if err := in.Step(ctx, in.Horizon()); err != nil {
					t.Fatal(err)
				}
			}
			lazyRes, err := lazy.Close()
			if err != nil {
				t.Fatal(err)
			}
			eagerRes, err := eager.Close()
			if err != nil {
				t.Fatal(err)
			}
			if v.name == "flat_faults_budget" && (lazyRes.Requeued == 0 || lazyRes.Preempted == 0) {
				t.Errorf("no crash requeue (%d) or preemption (%d) exercised", lazyRes.Requeued, lazyRes.Preempted)
			}
			if a, b := resultJSON(t, lazyRes), resultJSON(t, eagerRes); a != b {
				t.Errorf("extra settlements changed the result:\n lazy:  %s\n eager: %s", a, b)
			}
			lazy.st.advanceAll(lazy.Now())
			settleAll.advanceAll(eager.Now())
			if !slices.Equal(poolWords(lazyCfg.Nodes), poolWords(eagerCfg.Nodes)) {
				t.Error("settled registers differ between the lazy and the eager twin")
			}
		})
	}
}
