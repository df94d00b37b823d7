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
	"powerstack/internal/units"
)

func testNode(t *testing.T) *Node {
	t.Helper()
	n, err := New("quartz-0001", cpumodel.Quartz(), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// clone copies n onto a fresh register backing.
func clone(n *Node) *Node { return n.CloneInto(make([]uint64, n.WordCount())) }

func phase(cfg kernel.Config) cpumodel.Phase {
	return cpumodel.Phase{Work: cfg.CriticalWork(), Vector: cfg.Vector}
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
	fast, err := n.WorkTime(ph)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.SetPowerLimit(140 * units.Watt); err != nil {
		t.Fatal(err)
	}
	slow, err := n.WorkTime(ph)
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
	wt, err := n.WorkTime(ph)
	if err != nil {
		t.Fatal(err)
	}
	iter := 2 * wt // half the iteration is spin
	res, err := n.CompleteIteration(ph, iter, 1)
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
	resFull, err := n.CompleteIteration(ph, res.WorkTime, 1)
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
	res, err := n.CompleteIteration(ph, time.Nanosecond, 1)
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
		res, err := n.CompleteIteration(ph, 0, 1)
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
	res, err := n.CompleteIteration(ph, 0, 1)
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

func TestDRAMEnergyTracksMemoryIntensity(t *testing.T) {
	// A memory-bound workload keeps the channels saturated; a compute-
	// bound one barely touches them. DRAM power per unit time must
	// reflect that, and the MSR counter must agree with the results.
	dram := func(intensity float64) (units.Power, units.Energy) {
		n := testNode(t)
		if _, err := n.DRAMEnergy(); err != nil { // prime
			t.Fatal(err)
		}
		ph := phase(kernel.Config{Intensity: intensity, Vector: kernel.YMM, Imbalance: 1})
		var total units.Energy
		var elapsed time.Duration
		for i := 0; i < 5; i++ {
			res, err := n.CompleteIteration(ph, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			total += res.DRAMEnergy
			elapsed += res.WorkTime
		}
		counter, err := n.DRAMEnergy()
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
	wt, err := n.WorkTime(ph)
	if err != nil {
		t.Fatal(err)
	}
	f := func(extraMsRaw uint8) bool {
		extraA := time.Duration(extraMsRaw%100) * time.Millisecond
		extraB := extraA + 10*time.Millisecond
		ra, err := n.CompleteIteration(ph, wt+extraA, 1)
		if err != nil {
			return false
		}
		rb, err := n.CompleteIteration(ph, wt+extraB, 1)
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
	if _, err := c.CompleteIteration(ph, 0, 1); err != nil {
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
