package bsp

import (
	"math"
	"reflect"
	"testing"
	"time"

	"powerstack/internal/cluster"
	"powerstack/internal/cpumodel"
	"powerstack/internal/kernel"
	"powerstack/internal/node"
	"powerstack/internal/units"
)

func testNodes(t *testing.T, n int) []*node.Node {
	t.Helper()
	c, err := cluster.New(n, cpumodel.Quartz(), cpumodel.QuartzVariation(), 5)
	if err != nil {
		t.Fatal(err)
	}
	return c.Nodes()
}

func balancedCfg() kernel.Config {
	return kernel.Config{Intensity: 8, Vector: kernel.YMM, Imbalance: 1}
}

func imbalancedCfg() kernel.Config {
	return kernel.Config{Intensity: 8, Vector: kernel.YMM, WaitingPct: 50, Imbalance: 3}
}

func TestNewJobValidation(t *testing.T) {
	nodes := testNodes(t, 4)
	if _, err := NewJob("bad", kernel.Config{Intensity: -1, Imbalance: 1}, nodes, 1); err == nil {
		t.Error("expected config validation error")
	}
	if _, err := NewJob("empty", balancedCfg(), nil, 1); err == nil {
		t.Error("expected error for empty node list")
	}
}

// TestNewJobRejectsDuplicateNode pins that a node listed twice is refused:
// the two hosts would share one planned operating point, and with
// different roles one would finish the other's phase.
func TestNewJobRejectsDuplicateNode(t *testing.T) {
	nodes := testNodes(t, 4)
	if _, err := NewJob("dup", imbalancedCfg(), []*node.Node{nodes[0], nodes[1], nodes[2], nodes[0]}, 1); err == nil {
		t.Error("expected an error for a node listed twice")
	}
	if _, err := NewJob("ok", imbalancedCfg(), nodes, 1); err != nil {
		t.Errorf("distinct nodes: %v", err)
	}
}

func TestRoleAssignment(t *testing.T) {
	nodes := testNodes(t, 8)
	j, err := NewJob("j", imbalancedCfg(), nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := j.CriticalHosts(); got != 4 {
		t.Errorf("critical hosts = %d, want 4 (50%% waiting of 8)", got)
	}
	// Critical hosts lead, waiting hosts trail.
	if j.Hosts[0].Role != Critical || j.Hosts[7].Role != Waiting {
		t.Errorf("role layout: first=%v last=%v", j.Hosts[0].Role, j.Hosts[7].Role)
	}
}

func TestRoleAssignmentBalanced(t *testing.T) {
	nodes := testNodes(t, 5)
	j, err := NewJob("j", balancedCfg(), nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := j.CriticalHosts(); got != 5 {
		t.Errorf("critical hosts = %d, want all 5", got)
	}
}

func TestRoleAssignmentKeepsOneCritical(t *testing.T) {
	nodes := testNodes(t, 2)
	cfg := kernel.Config{Intensity: 4, Vector: kernel.YMM, WaitingPct: 75, Imbalance: 2}
	j, err := NewJob("j", cfg, nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := j.CriticalHosts(); got < 1 {
		t.Errorf("critical hosts = %d, want >= 1", got)
	}
}

func TestRoleString(t *testing.T) {
	if Critical.String() != "critical" || Waiting.String() != "waiting" {
		t.Error("role names wrong")
	}
}

func TestPhasePerRole(t *testing.T) {
	nodes := testNodes(t, 4)
	j, err := NewJob("j", imbalancedCfg(), nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	crit := j.Phase(Critical)
	wait := j.Phase(Waiting)
	if crit.Work.Traffic != 3*wait.Work.Traffic {
		t.Errorf("critical traffic %v, want 3x waiting %v", crit.Work.Traffic, wait.Work.Traffic)
	}
}

func TestRunIterationBarrierIsCriticalPath(t *testing.T) {
	nodes := testNodes(t, 6)
	j, err := NewJob("j", imbalancedCfg(), nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	j.NoiseSigma = 0
	ir, err := j.RunIterationInto(new(IterationScratch))
	if err != nil {
		t.Fatal(err)
	}
	var maxWork time.Duration
	for _, h := range ir.PerHost {
		if h.WorkTime > maxWork {
			maxWork = h.WorkTime
		}
	}
	if ir.Elapsed != maxWork {
		t.Errorf("Elapsed %v != max work %v", ir.Elapsed, maxWork)
	}
	// Waiting hosts finish early.
	for _, h := range ir.PerHost {
		if h.Role == Waiting && h.WorkTime >= ir.Elapsed {
			t.Errorf("waiting host %s work %v >= barrier %v", h.Node.ID, h.WorkTime, ir.Elapsed)
		}
	}
}

func TestRunIterationEnergyPositive(t *testing.T) {
	nodes := testNodes(t, 4)
	j, err := NewJob("j", balancedCfg(), nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	ir, err := j.RunIterationInto(new(IterationScratch))
	if err != nil {
		t.Fatal(err)
	}
	if ir.TotalEnergy <= 0 || ir.TotalFlops <= 0 {
		t.Errorf("energy=%v flops=%v", ir.TotalEnergy, ir.TotalFlops)
	}
	if got := ir.MeanHostPower().Watts(); got < 150 || got > 240 {
		t.Errorf("mean host power = %v W, outside sane band", got)
	}
}

func TestMeanHostPowerDegenerate(t *testing.T) {
	var r IterationResult
	if got := r.MeanHostPower(); got != 0 {
		t.Errorf("degenerate mean power = %v", got)
	}
}

func TestCapSlowsIteration(t *testing.T) {
	nodes := testNodes(t, 4)
	j, err := NewJob("j", balancedCfg(), nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	j.NoiseSigma = 0
	fast, err := j.RunIterationInto(new(IterationScratch))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if _, err := n.SetPowerLimit(150 * units.Watt); err != nil {
			t.Fatal(err)
		}
	}
	slow, err := j.RunIterationInto(new(IterationScratch))
	if err != nil {
		t.Fatal(err)
	}
	if slow.Elapsed <= fast.Elapsed {
		t.Errorf("capped iteration %v not slower than uncapped %v", slow.Elapsed, fast.Elapsed)
	}
	if slow.MeanHostPower() >= fast.MeanHostPower() {
		t.Errorf("capped power %v not below uncapped %v", slow.MeanHostPower(), fast.MeanHostPower())
	}
}

func TestSpinWasteGrowsWithImbalance(t *testing.T) {
	// With equal caps, an imbalanced job burns more energy per unit of
	// base work than a balanced one, because waiting hosts spin.
	nodesA := testNodes(t, 4)
	nodesB := testNodes(t, 4)
	jBal, err := NewJob("bal", balancedCfg(), nodesA, 1)
	if err != nil {
		t.Fatal(err)
	}
	jImb, err := NewJob("imb", imbalancedCfg(), nodesB, 1)
	if err != nil {
		t.Fatal(err)
	}
	jBal.NoiseSigma, jImb.NoiseSigma = 0, 0
	rBal, err := jBal.RunIterationInto(new(IterationScratch))
	if err != nil {
		t.Fatal(err)
	}
	rImb, err := jImb.RunIterationInto(new(IterationScratch))
	if err != nil {
		t.Fatal(err)
	}
	// Energy per achieved FLOP is worse for the imbalanced job.
	eBal := float64(rBal.TotalEnergy) / float64(rBal.TotalFlops)
	eImb := float64(rImb.TotalEnergy) / float64(rImb.TotalFlops)
	if eImb <= eBal {
		t.Errorf("imbalanced J/FLOP %v <= balanced %v", eImb, eBal)
	}
}

// iterationTimes runs iters iterations of j and returns their elapsed
// times, the sample the paper's confidence intervals are computed over.
func iterationTimes(t *testing.T, j *Job, iters int) []time.Duration {
	t.Helper()
	times := make([]time.Duration, iters)
	for k := range times {
		ir, err := j.RunIterationInto(new(IterationScratch))
		if err != nil {
			t.Fatal(err)
		}
		times[k] = ir.Elapsed
	}
	return times
}

func TestRunAggregates(t *testing.T) {
	nodes := testNodes(t, 4)
	j, err := NewJob("j", imbalancedCfg(), nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	var elapsed time.Duration
	var total units.Energy
	var flops units.Flops
	hostEnergy := make([]units.Energy, len(nodes))
	for k := 0; k < 20; k++ {
		ir, err := j.RunIterationInto(new(IterationScratch))
		if err != nil {
			t.Fatal(err)
		}
		var sum units.Energy
		for i, h := range ir.PerHost {
			hostEnergy[i] += h.Energy
			sum += h.Energy
		}
		if sum != ir.TotalEnergy {
			t.Errorf("iteration %d: TotalEnergy %v != sum of hosts %v", k, ir.TotalEnergy, sum)
		}
		elapsed += ir.Elapsed
		total += ir.TotalEnergy
		flops += ir.TotalFlops
	}
	for i, e := range hostEnergy {
		if p := units.MeanPower(e, elapsed); p <= 0 || p > 240*units.Watt {
			t.Errorf("host %d power = %v", i, p)
		}
	}
	if units.MeanPower(total, elapsed) <= 0 || units.EDP(total, elapsed) <= 0 || units.FlopsPerWatt(flops, total) <= 0 {
		t.Error("derived metrics non-positive")
	}
}

func TestNoiseProducesIterationVariance(t *testing.T) {
	nodes := testNodes(t, 4)
	j, err := NewJob("j", balancedCfg(), nodes, 99)
	if err != nil {
		t.Fatal(err)
	}
	times := iterationTimes(t, j, 30)
	first := times[0]
	same := true
	for _, it := range times[1:] {
		if it != first {
			same = false
			break
		}
	}
	if same {
		t.Error("OS noise produced identical iteration times")
	}
	// Noise is small: max/min within a few percent.
	mn, mx := times[0], times[0]
	for _, it := range times {
		if it < mn {
			mn = it
		}
		if it > mx {
			mx = it
		}
	}
	if ratio := float64(mx) / float64(mn); ratio > 1.1 {
		t.Errorf("noise spread ratio = %v, want < 1.1", ratio)
	}
}

func TestNoiseDeterministicBySeed(t *testing.T) {
	mk := func() []time.Duration {
		nodes := testNodes(t, 3)
		j, err := NewJob("j", balancedCfg(), nodes, 77)
		if err != nil {
			t.Fatal(err)
		}
		return iterationTimes(t, j, 10)
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different iteration times")
		}
	}
}

func TestHardwareVariationShowsUpInRun(t *testing.T) {
	// Two nodes with very different eta under a deep cap: host mean
	// powers equalize (both capped) but the critical path lengthens on
	// the inefficient node.
	spec := cpumodel.Quartz()
	nEff, err := node.New("eff", &spec, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	nIneff, err := node.New("ineff", &spec, 1.25)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []*node.Node{nEff, nIneff} {
		if _, err := n.SetPowerLimit(140 * units.Watt); err != nil {
			t.Fatal(err)
		}
	}
	j, err := NewJob("j", balancedCfg(), []*node.Node{nEff, nIneff}, 1)
	if err != nil {
		t.Fatal(err)
	}
	j.NoiseSigma = 0
	ir, err := j.RunIterationInto(new(IterationScratch))
	if err != nil {
		t.Fatal(err)
	}
	if ir.PerHost[0].WorkTime >= ir.PerHost[1].WorkTime {
		t.Errorf("efficient node %v not faster than inefficient %v",
			ir.PerHost[0].WorkTime, ir.PerHost[1].WorkTime)
	}
	if math.Abs(ir.PerHost[0].AchievedFreq.GHz()-ir.PerHost[1].AchievedFreq.GHz()) < 0.01 {
		t.Error("achieved frequencies should differ under a deep cap")
	}
}

// TestRunIterationIntoReusedMatchesFresh pins a reused scratch bit for bit
// against a fresh scratch per iteration: twin jobs on twin pools, OS noise
// on, a cap change mid-run, and the reused scratch carried from a smaller
// job so it must grow. Each result's PerHost equals the fresh one's, and
// the registers the iterations advanced match word for word.
func TestRunIterationIntoReusedMatchesFresh(t *testing.T) {
	pool := testNodes(t, 6)
	twin := cluster.ClonePool(pool)
	fresh, err := NewJob("j", imbalancedCfg(), pool, 9)
	if err != nil {
		t.Fatal(err)
	}
	reused, err := NewJob("j", imbalancedCfg(), twin, 9)
	if err != nil {
		t.Fatal(err)
	}
	small, err := NewJob("s", balancedCfg(), cluster.ClonePool(pool[:2]), 9)
	if err != nil {
		t.Fatal(err)
	}
	var scratch IterationScratch
	if _, err := small.RunIterationInto(&scratch); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 6; k++ {
		if k == 3 {
			for _, nodes := range [][]*node.Node{pool, twin} {
				if _, err := nodes[0].SetPowerLimit(160 * units.Watt); err != nil {
					t.Fatal(err)
				}
			}
		}
		want, err := fresh.RunIterationInto(new(IterationScratch))
		if err != nil {
			t.Fatal(err)
		}
		got, err := reused.RunIterationInto(&scratch)
		if err != nil {
			t.Fatal(err)
		}
		if want.Elapsed != got.Elapsed || want.TotalEnergy != got.TotalEnergy || len(want.PerHost) != len(got.PerHost) {
			t.Fatalf("iteration %d: reused scratch %+v, fresh storage %+v", k, got, want)
		}
		for i := range want.PerHost {
			w, g := want.PerHost[i], got.PerHost[i]
			if g.Node != twin[i] {
				t.Fatalf("iteration %d host %d: result names another node", k, i)
			}
			w.Node, g.Node = nil, nil
			if w != g {
				t.Fatalf("iteration %d host %d: reused scratch %+v, fresh storage %+v", k, i, g, w)
			}
		}
	}
	for i := range pool {
		if w, g := pool[i].SnapshotWords(nil), twin[i].SnapshotWords(nil); !reflect.DeepEqual(w, g) {
			t.Errorf("node %d registers differ: fresh %v, reused %v", i, w, g)
		}
	}
}

// BenchmarkRunIterationInto is the zero-alloc gate on the BSP iteration the
// GEOPM control loop runs: a 16-host imbalanced job with OS noise on, one
// reused scratch, every host planned and finished once per iteration.
func BenchmarkRunIterationInto(b *testing.B) {
	c, err := cluster.New(16, cpumodel.Quartz(), cpumodel.QuartzVariation(), 5)
	if err != nil {
		b.Fatal(err)
	}
	j, err := NewJob("bench", imbalancedCfg(), c.Nodes(), 3)
	if err != nil {
		b.Fatal(err)
	}
	var scratch IterationScratch
	if _, err := j.RunIterationInto(&scratch); err != nil { // grows scratch
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := j.RunIterationInto(&scratch); err != nil {
			b.Fatal(err)
		}
	}
}
