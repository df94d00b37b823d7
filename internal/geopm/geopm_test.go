package geopm

import (
	"errors"
	"math"
	"testing"
	"time"

	"powerstack/internal/bsp"
	"powerstack/internal/cluster"
	"powerstack/internal/cpumodel"
	"powerstack/internal/kernel"
	"powerstack/internal/msr"
	"powerstack/internal/node"
	"powerstack/internal/stats"
	"powerstack/internal/units"
)

func testJob(t testing.TB, cfg kernel.Config, n int, seed uint64) *bsp.Job {
	t.Helper()
	c, err := cluster.New(n, cpumodel.Quartz(), cpumodel.QuartzVariation(), seed)
	if err != nil {
		t.Fatal(err)
	}
	j, err := bsp.NewJob("job0", cfg, c.Nodes(), seed)
	if err != nil {
		t.Fatal(err)
	}
	j.NoiseSigma = 0
	return j
}

func TestAgentNames(t *testing.T) {
	if (Monitor{}).Name() != "monitor" {
		t.Error("monitor name")
	}
	if (PowerGovernor{}).Name() != "power_governor" {
		t.Error("governor name")
	}
	if NewPowerBalancer().Name() != "power_balancer" {
		t.Error("balancer name")
	}
}

func TestGovernorInitializeUniform(t *testing.T) {
	hosts := []HostSample{
		{MinLimit: 136, MaxLimit: 240},
		{MinLimit: 136, MaxLimit: 240},
		{MinLimit: 136, MaxLimit: 240},
	}
	limits := PowerGovernor{}.Initialize(600*units.Watt, hosts)
	for i, l := range limits {
		if l != 200*units.Watt {
			t.Errorf("limit[%d] = %v, want 200 W", i, l)
		}
	}
	// Budget below the floor clamps to the floor.
	limits = PowerGovernor{}.Initialize(300*units.Watt, hosts)
	for _, l := range limits {
		if l != 136*units.Watt {
			t.Errorf("clamped limit = %v, want 136 W", l)
		}
	}
	if got := (PowerGovernor{}).Initialize(100, nil); got != nil {
		t.Error("empty hosts should return nil")
	}
}

func TestMonitorControllerReportsUncappedPower(t *testing.T) {
	cfg := kernel.Config{Intensity: 8, Vector: kernel.YMM, Imbalance: 1}
	j := testJob(t, cfg, 8, 3)
	ctl, err := NewController(j, Monitor{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ctl.Run(20)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Agent != "monitor" || rep.Iterations != 20 {
		t.Errorf("report header: %+v", rep)
	}
	// Figure 4: uncapped i=8 draws ~232 W per node.
	if got := rep.MeanHostPower().Watts(); got < 220 || got > 240 {
		t.Errorf("mean host power = %v W, want ~232", got)
	}
	for _, h := range rep.Hosts {
		if math.Abs(h.FinalLimit.Watts()-240) > 0.5 {
			t.Errorf("monitor must not change limits: %v", h.FinalLimit)
		}
		if h.MeanAchievedFreq.GHz() < 2.5 {
			t.Errorf("uncapped frequency = %v, want turbo", h.MeanAchievedFreq)
		}
	}
	if rep.ConvergedAt != 0 {
		t.Errorf("monitor converges immediately, got %d", rep.ConvergedAt)
	}
}

func TestGovernorControllerEnforcesBudget(t *testing.T) {
	cfg := kernel.Config{Intensity: 8, Vector: kernel.YMM, Imbalance: 1}
	j := testJob(t, cfg, 8, 3)
	budget := 8 * 180 * units.Watt
	ctl, err := NewController(j, PowerGovernor{}, budget)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ctl.Run(20)
	if err != nil {
		t.Fatal(err)
	}
	// Allow one RAPL power LSB (0.125 W) per socket of quantization slack.
	if got := rep.MeanPower(); got > budget+units.Power(8*2*0.125) {
		t.Errorf("mean power %v exceeds budget %v", got, budget)
	}
	for _, h := range rep.Hosts {
		if math.Abs(h.FinalLimit.Watts()-180) > 0.5 {
			t.Errorf("governor limit = %v, want 180 W", h.FinalLimit)
		}
	}
}

func TestBalancerShiftsPowerToCriticalPath(t *testing.T) {
	cfg := kernel.Config{Intensity: 8, Vector: kernel.YMM, WaitingPct: 50, Imbalance: 3}
	j := testJob(t, cfg, 8, 3)
	budget := 8 * 200 * units.Watt
	ctl, err := NewController(j, NewPowerBalancer(), budget)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ctl.Run(60)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ConvergedAt < 0 {
		t.Error("balancer did not converge in 60 iterations")
	}
	var critLimit, waitLimit float64
	var nc, nw int
	for _, h := range rep.Hosts {
		if h.Role == bsp.Critical {
			critLimit += h.FinalLimit.Watts()
			nc++
		} else {
			waitLimit += h.FinalLimit.Watts()
			nw++
		}
	}
	critLimit /= float64(nc)
	waitLimit /= float64(nw)
	if critLimit <= waitLimit+20 {
		t.Errorf("critical limit %v W not well above waiting %v W", critLimit, waitLimit)
	}
}

func TestBalancerReducesTimeVsGovernor(t *testing.T) {
	cfg := kernel.Config{Intensity: 16, Vector: kernel.YMM, WaitingPct: 50, Imbalance: 3}
	budget := 8 * 170 * units.Watt

	jGov := testJob(t, cfg, 8, 3)
	ctlGov, err := NewController(jGov, PowerGovernor{}, budget)
	if err != nil {
		t.Fatal(err)
	}
	repGov, err := ctlGov.Run(60)
	if err != nil {
		t.Fatal(err)
	}

	jBal := testJob(t, cfg, 8, 3)
	ctlBal, err := NewController(jBal, NewPowerBalancer(), budget)
	if err != nil {
		t.Fatal(err)
	}
	repBal, err := ctlBal.Run(60)
	if err != nil {
		t.Fatal(err)
	}

	// Compare the tail iterations (post-convergence steady state).
	tail := func(r Report) time.Duration {
		var sum time.Duration
		ts := r.IterationTimes[len(r.IterationTimes)-10:]
		for _, t := range ts {
			sum += t
		}
		return sum
	}
	if tail(repBal) >= tail(repGov) {
		t.Errorf("balancer steady state %v not faster than governor %v", tail(repBal), tail(repGov))
	}
}

func TestBalancerSavesPowerOnImbalancedJobAtTDP(t *testing.T) {
	// The Figure 5 effect: at a TDP budget, the balancer cuts waiting
	// hosts' power without lengthening the critical path.
	cfg := kernel.Config{Intensity: 4, Vector: kernel.YMM, WaitingPct: 75, Imbalance: 3}

	jMon := testJob(t, cfg, 8, 3)
	repMon, err := mustRun(t, jMon, Monitor{}, 0, 40)
	if err != nil {
		t.Fatal(err)
	}
	jBal := testJob(t, cfg, 8, 3)
	budget := units.Power(8) * 240 * units.Watt // TDP budget
	repBal, err := mustRun(t, jBal, NewPowerBalancer(), budget, 40)
	if err != nil {
		t.Fatal(err)
	}

	if repBal.MeanHostPower() >= repMon.MeanHostPower()-5 {
		t.Errorf("balancer host power %v not clearly below monitor %v",
			repBal.MeanHostPower(), repMon.MeanHostPower())
	}
	// Time must not regress by more than the slack epsilon.
	slow := float64(repBal.Elapsed) / float64(repMon.Elapsed)
	if slow > 1.05 {
		t.Errorf("balancer slowed the job by %vx", slow)
	}
}

func TestBalancerBalancedJobIsNoOp(t *testing.T) {
	// With no waiting hosts and no hardware variation, there is no slack
	// to harvest: the balancer behaves like the governor (Figure 5's 0%
	// column equals Figure 4's).
	spec := cpumodel.Quartz()
	var nodes []*node.Node
	for i := 0; i < 4; i++ {
		n, err := node.New("n", &spec, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	cfg := kernel.Config{Intensity: 8, Vector: kernel.YMM, Imbalance: 1}
	j, err := bsp.NewJob("j", cfg, nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	j.NoiseSigma = 0
	budget := units.Power(4) * 240 * units.Watt
	rep, err := mustRun(t, j, NewPowerBalancer(), budget, 30)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range rep.Hosts {
		if math.Abs(h.FinalLimit.Watts()-240) > 1 {
			t.Errorf("balanced job limit moved to %v", h.FinalLimit)
		}
	}
}

func mustRun(t *testing.T, j *bsp.Job, a Agent, budget units.Power, iters int) (Report, error) {
	t.Helper()
	ctl, err := NewController(j, a, budget)
	if err != nil {
		return Report{}, err
	}
	return ctl.Run(iters)
}

func TestControllerSurfacesMSRFaults(t *testing.T) {
	cfg := kernel.Config{Intensity: 8, Vector: kernel.YMM, WaitingPct: 50, Imbalance: 2}
	errFlaky := errors.New("msr_safe: device temporarily unavailable")

	// Fault on the limit register: the balancer's first write must fail.
	j := testJob(t, cfg, 4, 5)
	j.Hosts[2].Node.Sockets()[0].Dev.SetFault(msr.MSRPkgPowerLimit, errFlaky)
	ctl, err := NewController(j, NewPowerBalancer(), units.Power(4)*200*units.Watt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Run(10); !errors.Is(err, errFlaky) {
		t.Errorf("limit fault not surfaced: %v", err)
	}

	// Fault on the energy counter: telemetry sampling must fail.
	j2 := testJob(t, cfg, 4, 5)
	j2.Hosts[1].Node.Sockets()[1].Dev.SetFault(msr.MSRPkgEnergyStatus, errFlaky)
	ctl2, err := NewController(j2, Monitor{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl2.Run(10); !errors.Is(err, errFlaky) {
		t.Errorf("energy fault not surfaced: %v", err)
	}
}

func TestControllerValidation(t *testing.T) {
	j := testJob(t, kernel.Config{Intensity: 1, Vector: kernel.YMM, Imbalance: 1}, 2, 1)
	if _, err := NewController(nil, Monitor{}, 0); err == nil {
		t.Error("nil job accepted")
	}
	if _, err := NewController(j, nil, 0); err == nil {
		t.Error("nil agent accepted")
	}
	if _, err := NewController(j, Monitor{}, -1); err == nil {
		t.Error("negative budget accepted")
	}
	ctl, err := NewController(j, Monitor{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Run(0); err == nil {
		t.Error("zero iterations accepted")
	}
}

func TestReportDerivedMetrics(t *testing.T) {
	j := testJob(t, kernel.Config{Intensity: 2, Vector: kernel.YMM, Imbalance: 1}, 3, 2)
	j.NoiseSigma = bsp.DefaultNoiseSigma // restore noise for CI width
	rep, err := mustRun(t, j, Monitor{}, 0, 25)
	if err != nil {
		t.Fatal(err)
	}
	secs := make([]float64, len(rep.IterationTimes))
	for i, d := range rep.IterationTimes {
		secs[i] = d.Seconds()
	}
	if ci := stats.ConfidenceInterval95(secs); ci <= 0 {
		t.Errorf("iteration-time CI95 = %v s, want > 0 with noise", ci)
	}
	if rep.MeanPower() <= 0 {
		t.Error("mean power <= 0")
	}
	if rep.TotalFlops <= 0 {
		t.Error("flops <= 0")
	}
	var r Report
	if r.MeanHostPower() != 0 {
		t.Error("degenerate mean host power")
	}
}

func TestBalancerAdjustEdgeCases(t *testing.T) {
	b := NewPowerBalancer()
	if got := b.Adjust(100, Sample{}); got != nil {
		t.Error("empty sample should return nil")
	}
	s := Sample{Hosts: []HostSample{{WorkTime: 0, Limit: 200, MinLimit: 136, MaxLimit: 240}}}
	if got := b.Adjust(100, s); got != nil {
		t.Error("zero work times should return nil")
	}
}

func TestBalancerReAdaptsAcrossPhases(t *testing.T) {
	// The future-work scenario: a job alternates between a balanced
	// compute phase and an imbalanced phase. The balancer must harvest
	// power in the imbalanced phase and return hosts to service when the
	// balanced phase resumes — the MinPowerFraction guard bounds how far
	// a host can be parked, so re-entry happens within a few control
	// intervals.
	c, err := cluster.New(8, cpumodel.Quartz(), cpumodel.QuartzVariation(), 3)
	if err != nil {
		t.Fatal(err)
	}
	balanced := kernel.Config{Intensity: 8, Vector: kernel.YMM, Imbalance: 1}
	imbalanced := kernel.Config{Intensity: 8, Vector: kernel.YMM, WaitingPct: 50, Imbalance: 3}
	j, err := bsp.NewJob("phased", balanced, c.Nodes(), 3)
	if err != nil {
		t.Fatal(err)
	}
	j.NoiseSigma = 0
	if err := j.SetSchedule([]bsp.PhaseSegment{
		{Config: balanced, Iterations: 15},
		{Config: imbalanced, Iterations: 25},
		{Config: balanced, Iterations: 20},
	}); err != nil {
		t.Fatal(err)
	}
	budget := units.Power(8) * 230 * units.Watt
	ctl, err := NewController(j, NewPowerBalancer(), budget)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ctl.Run(60)
	if err != nil {
		t.Fatal(err)
	}
	// During the imbalanced phase the balancer cuts waiting hosts, so
	// those iterations draw less power than the balanced phases; compare
	// the per-iteration-time-normalized energy by sampling iteration
	// times: imbalanced iterations are gated by 3x work, hence longer.
	var balancedT, imbalancedT time.Duration
	for k, it := range rep.IterationTimes {
		switch {
		case k < 15 || k >= 40:
			balancedT += it / time.Duration(30)
		default:
			imbalancedT += it / time.Duration(25)
		}
	}
	if imbalancedT <= balancedT {
		t.Errorf("imbalanced phase mean %v not longer than balanced %v", imbalancedT, balancedT)
	}
	// After the final balanced phase, no host may be parked below the
	// balanced phase's need: limits must have recovered to near-uniform.
	for _, h := range rep.Hosts {
		if h.FinalLimit.Watts() < 200 {
			t.Errorf("host %s still parked at %v after the balanced phase resumed", h.HostID, h.FinalLimit)
		}
	}
	// The last iterations must be no slower than the first balanced
	// phase's (the balancer recovered, within noise and RAPL LSBs).
	first := rep.IterationTimes[10]
	last := rep.IterationTimes[len(rep.IterationTimes)-1]
	if float64(last) > float64(first)*1.05 {
		t.Errorf("post-phase-change iteration %v much slower than initial %v", last, first)
	}
}

func TestBalancerConvergesQuietly(t *testing.T) {
	b := NewPowerBalancer()
	b.Initialize(400, []HostSample{{MinLimit: 136, MaxLimit: 240}, {MinLimit: 136, MaxLimit: 240}})
	// Perfectly balanced samples: no adjustments, convergence after the
	// quiet period.
	s := Sample{Hosts: []HostSample{
		{WorkTime: time.Second, Limit: 200, MinLimit: 136, MaxLimit: 240},
		{WorkTime: time.Second, Limit: 200, MinLimit: 136, MaxLimit: 240},
	}}
	for i := 0; i < convergedAfterQuiet; i++ {
		if b.Converged() {
			t.Fatalf("converged too early at round %d", i)
		}
		if got := b.Adjust(400, s); got != nil {
			t.Fatalf("balanced sample triggered adjustment: %v", got)
		}
	}
	if !b.Converged() {
		t.Error("balancer did not converge after quiet rounds")
	}
}

// TestStepRefreshesSwappedHost pins the sample's host bounds across a node
// replacement: a Step rewrites only the measured fields of a host's
// sample, so when a spare takes a host's place (rm's spare swap) the next
// Step must report the new node's ID and limits.
func TestStepRefreshesSwappedHost(t *testing.T) {
	cfg := kernel.Config{Intensity: 8, Vector: kernel.YMM, WaitingPct: 50, Imbalance: 2}
	j := testJob(t, cfg, 4, 11)
	spare := testJob(t, cfg, 1, 12).Hosts[0].Node
	spare.ID = "spare"
	ctl, err := NewController(j, NewPowerBalancer(), 4*200*units.Watt)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Step(0); err != nil {
		t.Fatal(err)
	}
	j.Hosts[2].Node = spare
	if _, err := ctl.Step(1); err != nil {
		t.Fatal(err)
	}
	for i, h := range ctl.LastSample().Hosts {
		n := j.Hosts[i].Node
		if h.HostID != n.ID || h.MinLimit != n.MinLimit() || h.MaxLimit != n.TDP() {
			t.Errorf("host %d sample %+v, want node %s bounds [%v, %v]", i, h, n.ID, n.MinLimit(), n.TDP())
		}
	}
}

// BenchmarkControllerStep is the zero-alloc gate on the paper's control
// loop in steady state: a 16-host imbalanced balancer job with OS noise
// on, one Step per iteration (the BSP iteration, the RAPL energy samples,
// the agent's reaction and its limit writes).
func BenchmarkControllerStep(b *testing.B) {
	cfg := kernel.Config{Intensity: 8, Vector: kernel.YMM, WaitingPct: 50, Imbalance: 2}
	j := testJob(b, cfg, 16, 5)
	j.NoiseSigma = bsp.DefaultNoiseSigma
	ctl, err := NewController(j, NewPowerBalancer(), 16*200*units.Watt)
	if err != nil {
		b.Fatal(err)
	}
	if err := ctl.Start(); err != nil {
		b.Fatal(err)
	}
	k := 0
	for ; k < 50; k++ { // grows the buffers and lets the balancer converge
		if _, err := ctl.Step(k); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := ctl.Step(k); err != nil {
			b.Fatal(err)
		}
		k++
	}
}
