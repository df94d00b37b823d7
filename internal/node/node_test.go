package node

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"powerstack/internal/cpumodel"
	"powerstack/internal/kernel"
	"powerstack/internal/msr"
	"powerstack/internal/rapl"
	"powerstack/internal/units"
)

func testNode(t *testing.T) *Node {
	t.Helper()
	n, err := New("quartz-0001", quartz(), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// clone copies n onto a fresh register backing.
// quartz returns a fresh Quartz spec for a test node's sockets to share.
func quartz() *cpumodel.Spec {
	s := cpumodel.Quartz()
	return &s
}

func clone(n *Node) *Node { return n.CloneInto(make([]uint64, n.WordCount())) }

func phase(cfg kernel.Config) cpumodel.Phase {
	return cpumodel.Phase{Work: cfg.CriticalWork(), Vector: cfg.Vector}
}

// iterate plans and finishes one iteration of ph on n.
func iterate(n *Node, ph cpumodel.Phase, iterTime time.Duration, workScale float64) (PhaseResult, error) {
	var res PhaseResult
	if _, err := n.PlanIteration(&ph); err != nil {
		return res, err
	}
	err := n.FinishIteration(&ph, iterTime, workScale, &res)
	return res, err
}

func TestNewNodeDefaults(t *testing.T) {
	n := testNode(t)
	if len(n.Sockets()) != SocketsPerNode {
		t.Fatalf("sockets = %d", len(n.Sockets()))
	}
	if n.TDP() != 240*units.Watt {
		t.Errorf("node TDP = %v, want 240 W", n.TDP())
	}
	if n.MinLimit() != 136*units.Watt {
		t.Errorf("node min limit = %v, want 136 W", n.MinLimit())
	}
	// Power-on limit is TDP.
	limit, err := n.PowerLimit()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(limit.Watts()-240) > 0.5 {
		t.Errorf("power-on limit = %v, want 240 W", limit)
	}
	if n.Eta() != 1.0 {
		t.Errorf("eta = %v", n.Eta())
	}
}

func TestSetPowerLimitRoundTrip(t *testing.T) {
	n := testNode(t)
	got, err := n.SetPowerLimit(180 * units.Watt)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Watts()-180) > 0.5 {
		t.Errorf("programmed limit = %v, want 180 W", got)
	}
	read, err := n.PowerLimit()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(read.Watts()-got.Watts()) > 1e-9 {
		t.Errorf("read-back %v != programmed %v", read, got)
	}
}

func TestSetPowerLimitClamps(t *testing.T) {
	n := testNode(t)
	got, err := n.SetPowerLimit(50 * units.Watt) // below node minimum
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Watts()-136) > 0.5 {
		t.Errorf("clamped limit = %v, want 136 W", got)
	}
	got, err = n.SetPowerLimit(500 * units.Watt) // above TDP
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Watts()-240) > 0.5 {
		t.Errorf("clamped limit = %v, want 240 W", got)
	}
}

func TestWorkTimeSlowsUnderCap(t *testing.T) {
	n := testNode(t)
	ph := phase(kernel.Config{Intensity: 32, Vector: kernel.YMM, Imbalance: 1})
	fast, err := n.PlanIteration(&ph)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.SetPowerLimit(140 * units.Watt); err != nil {
		t.Fatal(err)
	}
	slow, err := n.PlanIteration(&ph)
	if err != nil {
		t.Fatal(err)
	}
	if slow <= fast {
		t.Errorf("capped work time %v not slower than uncapped %v", slow, fast)
	}
}

func TestCompleteIterationAccounting(t *testing.T) {
	n := testNode(t)
	ph := phase(kernel.Config{Intensity: 8, Vector: kernel.YMM, Imbalance: 1})
	wt, err := n.PlanIteration(&ph)
	if err != nil {
		t.Fatal(err)
	}
	iter := 2 * wt // half the iteration is spin
	res, err := iterate(n, ph, iter, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.WorkTime != wt {
		t.Errorf("WorkTime = %v, want %v", res.WorkTime, wt)
	}
	if res.Energy <= 0 {
		t.Errorf("Energy = %v", res.Energy)
	}
	if res.MeanPower <= 0 || res.MeanPower > n.TDP() {
		t.Errorf("MeanPower = %v", res.MeanPower)
	}
	wantFlops := float64(ph.Work.Flops) * 34
	if math.Abs(float64(res.Flops)-wantFlops) > 1 {
		t.Errorf("Flops = %v, want %v", res.Flops, wantFlops)
	}
	// Spin power < work power, so the mean power over a half-spin
	// iteration is below the pure-work power.
	resFull, err := iterate(n, ph, res.WorkTime, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanPower >= resFull.MeanPower {
		t.Errorf("spin-heavy mean power %v >= pure-work %v", res.MeanPower, resFull.MeanPower)
	}
}

func TestCompleteIterationClampsShortBarrier(t *testing.T) {
	n := testNode(t)
	ph := phase(kernel.Config{Intensity: 8, Vector: kernel.YMM, Imbalance: 1})
	res, err := iterate(n, ph, time.Nanosecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	// iterTime shorter than the work time is extended to the work time.
	if res.WorkTime <= time.Nanosecond {
		t.Errorf("WorkTime = %v", res.WorkTime)
	}
	if res.MeanPower <= 0 {
		t.Errorf("MeanPower = %v", res.MeanPower)
	}
}

func TestEnergyCounterMatchesReportedEnergy(t *testing.T) {
	n := testNode(t)
	if _, err := n.Energy(); err != nil { // prime the wrap tracker
		t.Fatal(err)
	}
	ph := phase(kernel.Config{Intensity: 4, Vector: kernel.YMM, Imbalance: 1})
	var want units.Energy
	for i := 0; i < 10; i++ {
		res, err := iterate(n, ph, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		want += res.Energy
	}
	got, err := n.Energy()
	if err != nil {
		t.Fatal(err)
	}
	// One energy LSB (15.3 uJ) per socket per iteration of slack.
	if math.Abs(got.Joules()-want.Joules()) > 0.001 {
		t.Errorf("MSR energy = %v, accumulated = %v", got, want)
	}
}

func TestAchievedFrequencyFromCounters(t *testing.T) {
	n := testNode(t)
	_, a0, m0 := n.AchievedFrequency(0, 0)
	ph := phase(kernel.Config{Intensity: 8, Vector: kernel.YMM, Imbalance: 1})
	if _, err := n.SetPowerLimit(140 * units.Watt); err != nil {
		t.Fatal(err)
	}
	res, err := iterate(n, ph, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	freq, _, _ := n.AchievedFrequency(a0, m0)
	if math.Abs(freq.GHz()-res.AchievedFreq.GHz()) > 0.02 {
		t.Errorf("counter frequency %v vs result %v", freq, res.AchievedFreq)
	}
	// Under a 140 W node cap the most power-hungry workload cannot hold
	// turbo.
	if freq >= n.Spec().MaxTurbo {
		t.Errorf("achieved frequency %v not throttled", freq)
	}
}

func TestAchievedFrequencyZeroDelta(t *testing.T) {
	n := testNode(t)
	_, a, m := n.AchievedFrequency(0, 0)
	f, _, _ := n.AchievedFrequency(a, m)
	if f != 0 {
		t.Errorf("zero-delta frequency = %v, want 0", f)
	}
}

// dramEnergy reads the node's accumulated DRAM-domain energy through the
// RAPL domains (wraparound-safe).
func dramEnergy(n *Node) (units.Energy, error) {
	var total units.Energy
	for _, s := range n.sockets {
		e, err := s.Rapl.ReadDRAMEnergy()
		if err != nil {
			return 0, err
		}
		total += e
	}
	return total, nil
}

func TestDRAMEnergyTracksMemoryIntensity(t *testing.T) {
	// A memory-bound workload keeps the channels saturated; a compute-
	// bound one barely touches them. DRAM power per unit time must
	// reflect that, and the MSR counter must agree with the results.
	dram := func(intensity float64) (units.Power, units.Energy) {
		n := testNode(t)
		if _, err := dramEnergy(n); err != nil { // prime
			t.Fatal(err)
		}
		ph := phase(kernel.Config{Intensity: intensity, Vector: kernel.YMM, Imbalance: 1})
		var total units.Energy
		var elapsed time.Duration
		for i := 0; i < 5; i++ {
			res, err := iterate(n, ph, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			total += res.DRAMEnergy
			elapsed += res.WorkTime
		}
		counter, err := dramEnergy(n)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(counter.Joules()-total.Joules()) > 0.001 {
			t.Errorf("MSR DRAM counter %v != accumulated %v", counter, total)
		}
		return units.MeanPower(total, elapsed), total
	}
	memPower, _ := dram(0.25)
	compPower, _ := dram(32)
	// Memory-bound: both sockets near DRAMMaxPower (36 W/node);
	// compute-bound: near idle.
	if memPower.Watts() < 30 || memPower.Watts() > 37 {
		t.Errorf("memory-bound DRAM power = %v, want ~36 W", memPower)
	}
	if compPower.Watts() > 20 {
		t.Errorf("compute-bound DRAM power = %v, want near idle", compPower)
	}
	if compPower >= memPower {
		t.Error("DRAM power should follow memory intensity")
	}
}

// Property: iteration energy grows with iteration time (spinning costs
// energy), and mean power stays within [0, TDP + slack].
func TestIterationEnergyMonotoneInBarrierTime(t *testing.T) {
	n := testNode(t)
	ph := phase(kernel.Config{Intensity: 2, Vector: kernel.YMM, Imbalance: 1})
	wt, err := n.PlanIteration(&ph)
	if err != nil {
		t.Fatal(err)
	}
	f := func(extraMsRaw uint8) bool {
		extraA := time.Duration(extraMsRaw%100) * time.Millisecond
		extraB := extraA + 10*time.Millisecond
		ra, err := iterate(n, ph, wt+extraA, 1)
		if err != nil {
			return false
		}
		rb, err := iterate(n, ph, wt+extraB, 1)
		if err != nil {
			return false
		}
		return rb.Energy > ra.Energy && ra.MeanPower <= n.TDP()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCloneIsolation(t *testing.T) {
	n := testNode(t)
	if _, err := n.SetPowerLimit(200 * units.Watt); err != nil {
		t.Fatal(err)
	}
	c := clone(n)
	if c.ID != n.ID || c.Eta() != n.Eta() {
		t.Errorf("clone identity: ID=%q eta=%v, want %q/%v", c.ID, c.Eta(), n.ID, n.Eta())
	}
	// The programmed limit carries over...
	limit, err := c.PowerLimit()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(limit.Watts()-200) > 0.5 {
		t.Errorf("clone limit = %v, want 200 W", limit)
	}
	// ...but subsequent programming diverges.
	if _, err := c.SetPowerLimit(150 * units.Watt); err != nil {
		t.Fatal(err)
	}
	limit, err = n.PowerLimit()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(limit.Watts()-200) > 0.5 {
		t.Errorf("original limit = %v after clone write, want 200 W", limit)
	}
	// Running work on the clone advances only the clone's counters.
	ph := phase(kernel.Config{Intensity: 8, Vector: kernel.YMM, Imbalance: 1})
	if _, err := iterate(c, ph, 0, 1); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < SocketsPerNode; s++ {
		orig := n.Sockets()[s].Dev.PrivilegedRead(msr.MSRPkgEnergyStatus)
		cl := c.Sockets()[s].Dev.PrivilegedRead(msr.MSRPkgEnergyStatus)
		if cl <= orig {
			t.Errorf("socket %d: clone energy %d not ahead of original %d", s, cl, orig)
		}
	}
}

func TestCloneCarriesInjectedFaults(t *testing.T) {
	n := testNode(t)
	n.Sockets()[0].Dev.SetFault(msr.MSRPkgPowerLimit, errFlaky)
	c := clone(n)
	if _, err := c.SetPowerLimit(180 * units.Watt); !errors.Is(err, errFlaky) {
		t.Errorf("clone err = %v, want the injected fault", err)
	}
}

// TestResolveTableHandles pins the held cap tables: a resolve miss reuses
// them while the phase matches, swaps the work table when the phase
// changes, and lands on the operating point a lookup from scratch gives.
func TestResolveTableHandles(t *testing.T) {
	n := testNode(t)
	phA := phase(kernel.Config{Intensity: 32, Vector: kernel.YMM, Imbalance: 1})
	phB := phase(kernel.Config{Intensity: 0.25, Vector: kernel.XMM, Imbalance: 2})
	for i, c := range []struct {
		ph  cpumodel.Phase
		cap units.Power
	}{{phA, 200}, {phA, 150}, {phB, 150}, {phB, 180}, {phA, 180}} {
		if _, err := n.SetPowerLimit(c.cap); err != nil {
			t.Fatal(err)
		}
		got, err := n.PlanIteration(&c.ph)
		if err != nil {
			t.Fatal(err)
		}
		if n.work.Phase() != c.ph {
			t.Fatalf("step %d: held work table inverts %+v, want %+v", i, n.work.Phase(), c.ph)
		}
		spec := n.Spec()
		if n.work != cpumodel.CapTableFor(&spec, c.ph) || n.spin != cpumodel.SpinCapTableFor(&spec) {
			t.Fatalf("step %d: held tables are not the shared ones", i)
		}
		fresh := clone(n)
		fresh.work, fresh.spin, fresh.opValid = nil, nil, false
		want, err := fresh.PlanIteration(&c.ph)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("step %d: work time %v with held tables, %v from scratch", i, got, want)
		}
	}
}

// BenchmarkResolveMiss alternates two caps through PlanIteration, so every call
// misses the operating-point memo and inverts both cap tables. It must not
// allocate.
func BenchmarkResolveMiss(b *testing.B) {
	n, err := New("quartz-0001", quartz(), 1.02)
	if err != nil {
		b.Fatal(err)
	}
	ph := phase(kernel.Config{Intensity: 8, Vector: kernel.YMM, Imbalance: 1})
	caps := [2]units.Power{170 * units.Watt, 190 * units.Watt}
	var enc rapl.LimitEncoder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.SetPowerLimitCached(caps[i&1], &enc); err != nil {
			b.Fatal(err)
		}
		if _, err := n.PlanIteration(&ph); err != nil {
			b.Fatal(err)
		}
	}
}
