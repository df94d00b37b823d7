package roofline

import (
	"math"
	"testing"
	"testing/quick"

	"powerstack/internal/kernel"
	"powerstack/internal/units"
)

// Derived curves of the energy model that only the tests evaluate.

// FlopsPerJoule returns the modeled energy efficiency of a kernel with the
// given computational intensity (FLOPs/byte), per the energy roofline:
// higher intensity amortizes both the per-byte energy and the constant
// power over more useful work, saturating at 1/EFlop as I grows.
func (m EnergyModel) FlopsPerJoule(intensity float64) float64 {
	if intensity <= 0 {
		return 0
	}
	// Per gigabyte of traffic (large enough that the execution-time term
	// is not lost to sub-nanosecond truncation).
	const q = 1e9
	w := kernel.Work{Traffic: q, Flops: units.Flops(intensity * q)}
	e := m.Energy(w)
	if e <= 0 {
		return 0
	}
	return intensity * q / e.Joules()
}

// BalancePoint returns the energy balance intensity B = EByte/EFlop in
// FLOPs per byte: the intensity at which compute energy equals memory
// energy.
func (m EnergyModel) BalancePoint() float64 {
	if m.EFlop <= 0 {
		return 0
	}
	return float64(m.EByte) / float64(m.EFlop)
}

// AsymptoticFlopsPerJoule returns the efficiency ceiling 1/(EFlop +
// P0/PeakFlops): what a purely compute-bound kernel converges to.
func (m EnergyModel) AsymptoticFlopsPerJoule() float64 {
	denom := float64(m.EFlop)
	if m.PeakFlops > 0 {
		denom += float64(m.ConstPower) / float64(m.PeakFlops)
	}
	if denom <= 0 {
		return 0
	}
	return 1 / denom
}

// EnergySweep evaluates the efficiency curve over the Figure 3 intensity
// range.
func (m EnergyModel) EnergySweep() []EnergyPoint {
	intensities := []float64{0.007, 0.04, 0.1, 0.25, 0.5, 1, 2, 4, 8, 16, 32, 40}
	out := make([]EnergyPoint, 0, len(intensities))
	for _, in := range intensities {
		out = append(out, EnergyPoint{Intensity: in, FlopsPerJoule: m.FlopsPerJoule(in)})
	}
	return out
}

// EnergyPoint is one sample of the energy-efficiency curve.
type EnergyPoint struct {
	Intensity     float64
	FlopsPerJoule float64
}

// testModel is a hand-built energy model with easy numbers.
func testModel() EnergyModel {
	return EnergyModel{
		EFlop:         2e-10 * units.Joule, // 0.2 nJ/FLOP
		EByte:         1e-9 * units.Joule,  // 1 nJ/byte
		ConstPower:    50 * units.Watt,
		PeakFlops:     100 * units.Gigaflops,
		PeakBandwidth: 50 * units.GBPerSecond,
	}
}

func TestEnergyDecomposition(t *testing.T) {
	m := testModel()
	w := kernel.Work{Traffic: 1e9, Flops: 1e9} // 1 GB, 1 GFLOP
	// Time: max(1e9/100e9, 1e9/50e9) = 0.02 s (memory bound).
	if got := m.Time(w).Seconds(); math.Abs(got-0.02) > 1e-9 {
		t.Fatalf("time = %v, want 0.02 s", got)
	}
	// Energy: 1e9*2e-10 + 1e9*1e-9 + 50*0.02 = 0.2 + 1 + 1 = 2.2 J.
	if got := m.Energy(w).Joules(); math.Abs(got-2.2) > 1e-9 {
		t.Errorf("energy = %v, want 2.2 J", got)
	}
}

func TestEnergyZeroWork(t *testing.T) {
	m := testModel()
	if got := m.Energy(kernel.Work{}); got != 0 {
		t.Errorf("zero work energy = %v", got)
	}
	if got := m.Time(kernel.Work{}); got != 0 {
		t.Errorf("zero work time = %v", got)
	}
}

func TestBalancePoint(t *testing.T) {
	m := testModel()
	// B = EByte/EFlop = 1e-9/2e-10 = 5 FLOPs/byte.
	if got := m.BalancePoint(); math.Abs(got-5) > 1e-9 {
		t.Errorf("balance point = %v, want 5", got)
	}
	if got := (EnergyModel{}).BalancePoint(); got != 0 {
		t.Errorf("degenerate balance point = %v", got)
	}
	// At the balance intensity, compute and memory energies are equal.
	w := kernel.Work{Traffic: 1e9, Flops: units.Flops(5e9)}
	compute := float64(w.Flops) * float64(m.EFlop)
	memory := float64(w.Traffic) * float64(m.EByte)
	if math.Abs(compute-memory) > 1e-9 {
		t.Errorf("balance energies: %v vs %v", compute, memory)
	}
}

func TestFlopsPerJouleMonotone(t *testing.T) {
	m := testModel()
	prev := 0.0
	for _, in := range []float64{0.01, 0.1, 1, 5, 10, 50, 500} {
		got := m.FlopsPerJoule(in)
		if got <= prev {
			t.Fatalf("efficiency not increasing at intensity %v: %v <= %v", in, got, prev)
		}
		prev = got
	}
	if got := m.FlopsPerJoule(0); got != 0 {
		t.Errorf("efficiency at zero intensity = %v", got)
	}
}

func TestFlopsPerJouleSaturates(t *testing.T) {
	m := testModel()
	asym := m.AsymptoticFlopsPerJoule()
	if asym <= 0 {
		t.Fatal("asymptote not positive")
	}
	high := m.FlopsPerJoule(1e6)
	if math.Abs(high-asym)/asym > 0.01 {
		t.Errorf("efficiency at huge intensity %v not near asymptote %v", high, asym)
	}
	// The asymptote is an upper bound everywhere.
	for _, p := range m.EnergySweep() {
		if p.FlopsPerJoule > asym*(1+1e-9) {
			t.Errorf("intensity %v efficiency %v exceeds asymptote %v", p.Intensity, p.FlopsPerJoule, asym)
		}
	}
}

func TestEnergySweepShape(t *testing.T) {
	pts := testModel().EnergySweep()
	if len(pts) < 10 {
		t.Fatalf("sweep points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Intensity <= pts[i-1].Intensity {
			t.Fatal("sweep intensities not increasing")
		}
		if pts[i].FlopsPerJoule < pts[i-1].FlopsPerJoule {
			t.Fatal("sweep efficiency not monotone")
		}
	}
}

// Property: energy is additive across work splits when both halves stay on
// the same bound side (pure memory), and superadditive never happens.
func TestEnergyAdditivityProperty(t *testing.T) {
	m := testModel()
	f := func(trafficRaw uint32, split uint8) bool {
		total := kernel.Work{Traffic: units.Bytes(float64(trafficRaw%1_000_000) + 1)}
		frac := float64(split%99+1) / 100
		a := kernel.Work{Traffic: units.Bytes(float64(total.Traffic) * frac)}
		b := kernel.Work{Traffic: total.Traffic - a.Traffic}
		sum := m.Energy(a).Joules() + m.Energy(b).Joules()
		whole := m.Energy(total).Joules()
		return math.Abs(sum-whole) <= 1e-6*math.Max(1, whole)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
