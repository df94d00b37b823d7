package facility

import (
	"testing"
	"time"

	"powerstack/internal/cluster"
	"powerstack/internal/fault"
)

// pipelineFaults is the fault plan the parallel-pipeline and incremental-
// telemetry equivalences are pinned under: a crash with a scheduled repair,
// a bounded slow-node window, an MSR write fault (which forces a cap-write
// failure through the batch's deferred quarantine/spare path), an MSR read
// fault (whose countdown makes the number of energy reads observable), and
// a telemetry dropout window that opens between samples.
func pipelineFaults() *fault.Plan {
	return fault.NewPlan(
		fault.Injection{Kind: fault.NodeCrash, Node: "quartz0001", At: 5 * time.Minute, RepairAfter: 10 * time.Minute},
		fault.Injection{Kind: fault.SlowNode, Node: "quartz0002", At: 7 * time.Minute, Duration: 8 * time.Minute, Factor: 1.4},
		fault.Injection{Kind: fault.MSRWriteFault, Node: "quartz0003", After: 2},
		fault.Injection{Kind: fault.MSRReadFault, Node: "quartz0004", After: 40},
		fault.Injection{Kind: fault.TelemetryDropout, Node: "quartz0005", At: 9 * time.Minute, Duration: 5 * time.Minute},
	)
}

// withLeafChunk runs fn with the telemetry fan-out cut into tasks of chunk
// dirty leaves (0 keeps telemetry.LeafChunk), so a 24-node pool's dirty
// list crosses task boundaries.
func withLeafChunk(chunk int, fn func() string) string {
	testLeafChunk = chunk
	defer func() { testLeafChunk = 0 }()
	return fn()
}

// TestParallelReplanByteIdentical pins the worker pool's determinism
// contract: a scale-mode event run with the room replan pipeline,
// fanned-out sample settlement and chunked leaf reads produces a
// byte-identical Result at every parallelism — 0 and 1 run every phase
// inline, 2 and 8 on goroutines — with a fault plan exercising crash,
// repair, slow windows, and the cap-write-failure deferral. Each
// goroutine-backed parallelism runs at the real leaf chunk size and at 4
// leaves, where the dirty list splits into several sample tasks.
func TestParallelReplanByteIdentical(t *testing.T) {
	src, db, workloads := facilityEnv(t, 24)
	run := func(parallelism int) string {
		cfg := baseConfig(cluster.ClonePool(src), db, workloads)
		cfg.JobSizes = []int{2, 4, 8}
		cfg.Parallelism = parallelism
		res := runScaleCase(t, cfg, ScaleOn, pipelineFaults())
		if res.Completed == 0 {
			t.Fatalf("parallelism %d: no jobs completed", parallelism)
		}
		return resultJSON(t, res)
	}
	want := run(0)
	for _, p := range []int{1, 2, 8} {
		for _, chunk := range []int{0, 4} {
			if got := withLeafChunk(chunk, func() string { return run(p) }); got != want {
				t.Errorf("parallelism %d, leaf chunk %d diverged from parallelism 0\np0:  %s\ngot: %s", p, chunk, want, got)
			}
		}
	}
}

// TestIncrementalTelemetryMatchesSweepFacility pins the event core's dirty
// marking end to end: a scale-mode run sampling only marked leaves
// produces a byte-identical Result to the same run with every leaf marked
// before each sample (a full pass), under faults that exercise every
// volatile branch — crash/repair toggles, a read-fault countdown (pinned
// leaf), and a dropout window opening between samples. The dirty-set run
// is repeated on 2 workers with 4-leaf sample tasks, so both the full and
// the dirty lists cross chunk boundaries on concurrent workers.
func TestIncrementalTelemetryMatchesSweepFacility(t *testing.T) {
	src, db, workloads := facilityEnv(t, 24)
	run := func(markAll bool, parallelism int) string {
		testMarkAllDirty = markAll
		defer func() { testMarkAllDirty = false }()
		cfg := baseConfig(cluster.ClonePool(src), db, workloads)
		cfg.JobSizes = []int{2, 4, 8}
		cfg.Parallelism = parallelism
		res := runScaleCase(t, cfg, ScaleOn, pipelineFaults())
		if res.Completed == 0 {
			t.Fatal("no jobs completed")
		}
		return resultJSON(t, res)
	}
	sweep := run(true, 0)
	inc := run(false, 0)
	if sweep != inc {
		t.Errorf("dirty-set sample diverged from full passes\nfull:  %s\ndirty: %s", sweep, inc)
	}
	for _, markAll := range []bool{true, false} {
		got := withLeafChunk(4, func() string { return run(markAll, 2) })
		if got != sweep {
			t.Errorf("markAll %v on 2 workers with 4-leaf chunks diverged from full passes\nfull:  %s\ngot:   %s", markAll, sweep, got)
		}
	}
}

// TestScaleCompatDivergenceBounded bounds the known divergence of the
// hierarchical replan from the flat one: the rack/room water-fill weighs
// rack-mates only, so its job mix — and therefore completion count and
// energy — drifts from the flat policy's, but the drift is an
// approximation, not a fault. The flat side runs ScaleAuto, which at 48
// nodes (below ScaleThreshold) is the flat path; the test pins the drift
// to within 10% (see DESIGN.md "Scale-mode divergence").
func TestScaleCompatDivergenceBounded(t *testing.T) {
	src, db, workloads := facilityEnv(t, 48)
	cfg := func() Config {
		c := baseConfig(cluster.ClonePool(src), db, workloads)
		c.JobSizes = []int{2, 4}
		c.Duration = 45 * time.Minute
		return c
	}
	compat := runScaleCase(t, cfg(), ScaleAuto, nil)
	scale := runScaleCase(t, cfg(), ScaleOn, nil)
	if compat.Completed == 0 || scale.Completed == 0 {
		t.Fatalf("degenerate run: compat %d completed, scale %d completed", compat.Completed, scale.Completed)
	}
	// Same arrivals, same admission: the divergence is in pacing, not in
	// what was submitted.
	if compat.Submitted != scale.Submitted {
		t.Errorf("Submitted diverged: compat %d, scale %d", compat.Submitted, scale.Submitted)
	}
	if d := relDiff(float64(compat.Completed), float64(scale.Completed)); d > 0.10 {
		t.Errorf("Completed diverged %.1f%% (tolerance 10%%): compat %d, scale %d", 100*d, compat.Completed, scale.Completed)
	}
	if d := relDiff(compat.TotalEnergy.Joules(), scale.TotalEnergy.Joules()); d > 0.10 {
		t.Errorf("TotalEnergy diverged %.1f%% (tolerance 10%%): compat %v, scale %v", 100*d, compat.TotalEnergy, scale.TotalEnergy)
	}
}
