package cpumodel

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"powerstack/internal/kernel"
	"powerstack/internal/units"
)

func nominal() Socket { return NewSocket(quartz(), 1.0) }

// phaseFor builds the per-core phase of a critical rank of the config.
func phaseFor(cfg kernel.Config) Phase {
	return Phase{Work: cfg.CriticalWork(), Vector: cfg.Vector}
}

func TestQuartzSpecMatchesTableI(t *testing.T) {
	s := Quartz()
	if s.TDP != 120*units.Watt {
		t.Errorf("TDP = %v, want 120 W", s.TDP)
	}
	if s.MinPowerLimit != 68*units.Watt {
		t.Errorf("MinPowerLimit = %v, want 68 W", s.MinPowerLimit)
	}
	if s.BaseFreq != 2.1*units.Gigahertz {
		t.Errorf("BaseFreq = %v, want 2.1 GHz", s.BaseFreq)
	}
	if s.ActiveCores != 17 {
		t.Errorf("ActiveCores = %d, want 17 (34 per node)", s.ActiveCores)
	}
}

func TestNewSocketDefaultsEta(t *testing.T) {
	if got := NewSocket(quartz(), 0).Eta; got != 1 {
		t.Errorf("eta(0) = %v, want 1", got)
	}
	if got := NewSocket(quartz(), -2).Eta; got != 1 {
		t.Errorf("eta(-2) = %v, want 1", got)
	}
	if got := NewSocket(quartz(), 1.05).Eta; got != 1.05 {
		t.Errorf("eta = %v", got)
	}
}

func TestPowerMonotoneInFrequency(t *testing.T) {
	s := nominal()
	ph := phaseFor(kernel.Config{Intensity: 8, Vector: kernel.YMM, Imbalance: 1})
	prev := units.Power(0)
	for f := s.Spec.MinFreq; f <= s.Spec.MaxTurbo; f += 50 * units.Megahertz {
		p := s.PowerAt(ph, f)
		if p <= prev {
			t.Fatalf("power not increasing at %v: %v <= %v", f, p, prev)
		}
		prev = p
	}
}

func TestPowerMonotoneInEta(t *testing.T) {
	ph := phaseFor(kernel.Config{Intensity: 8, Vector: kernel.YMM, Imbalance: 1})
	eff := NewSocket(quartz(), 0.91)
	ineff := NewSocket(quartz(), 1.10)
	f := 2.0 * units.Gigahertz
	if eff.PowerAt(ph, f) >= ineff.PowerAt(ph, f) {
		t.Error("efficient part should draw less power at equal frequency")
	}
}

// The Figure 4 calibration: uncapped per-node power (two sockets) across
// the ymm heatmap grid must land in the paper's 200-240 W band, peak at
// mid intensity, and the extremes must draw less than the ridge.
func TestUncappedNodePowerMatchesFigure4Shape(t *testing.T) {
	s := nominal()
	power := map[float64]float64{}
	for _, in := range kernel.HeatmapIntensities() {
		cfg := kernel.Config{Intensity: in, Vector: kernel.YMM, Imbalance: 1}
		op := s.OperateAt(phaseFor(cfg), s.Spec.TDP)
		node := 2 * op.Power.Watts()
		if node < 195 || node > 240 {
			t.Errorf("intensity %g: node power %v W outside [195, 240]", in, node)
		}
		power[in] = node
	}
	peak, peakI := 0.0, 0.0
	for in, p := range power {
		if p > peak {
			peak, peakI = p, in
		}
	}
	if peakI < 4 || peakI > 16 {
		t.Errorf("power peak at intensity %g, want mid-grid (4..16)", peakI)
	}
	if power[0.25] >= peak || power[32] >= peak {
		t.Errorf("extremes should draw less than the ridge: %v", power)
	}
}

func TestUncappedRunsAtTurboWhenUnderTDP(t *testing.T) {
	s := nominal()
	ph := phaseFor(kernel.Config{Intensity: 1, Vector: kernel.YMM, Imbalance: 1})
	op := s.OperateAt(ph, s.Spec.TDP)
	if op.Frequency != s.Spec.MaxTurbo {
		t.Errorf("frequency = %v, want turbo %v", op.Frequency, s.Spec.MaxTurbo)
	}
	if op.Power > s.Spec.TDP {
		t.Errorf("power %v exceeds TDP", op.Power)
	}
}

func TestSpinPowerNearWorkPower(t *testing.T) {
	s := nominal()
	spin := s.SpinPowerAt(s.Spec.MaxTurbo).Watts()
	work := s.PowerAt(phaseFor(kernel.Config{Intensity: 8, Vector: kernel.YMM, Imbalance: 1}), s.Spec.MaxTurbo).Watts()
	ratio := spin / work
	// The paper's Figure 4 shows imbalanced (spin-heavy) columns within a
	// few percent of the balanced column: spin burns 85-99% of work power.
	if ratio < 0.85 || ratio > 0.99 {
		t.Errorf("spin/work power ratio = %v, want [0.85, 0.99]", ratio)
	}
}

func TestFrequencyForCapRespectsCap(t *testing.T) {
	s := nominal()
	ph := phaseFor(kernel.Config{Intensity: 8, Vector: kernel.YMM, Imbalance: 1})
	for _, cap := range []units.Power{70, 80, 90, 100, 110, 120} {
		f := s.FrequencyForCap(ph, cap)
		if p := s.PowerAt(ph, f); p > cap && f > s.Spec.MinFreq {
			t.Errorf("cap %v: power %v exceeds cap at %v", cap, p, f)
		}
	}
}

func TestFrequencyForCapFloorsAtMinFreq(t *testing.T) {
	s := nominal()
	ph := phaseFor(kernel.Config{Intensity: 8, Vector: kernel.YMM, Imbalance: 1})
	f := s.FrequencyForCap(ph, 10*units.Watt)
	if f != s.Spec.MinFreq {
		t.Errorf("frequency = %v, want floor %v", f, s.Spec.MinFreq)
	}
	// The overshoot is observable: power at the floor exceeds the cap.
	if p := s.PowerAt(ph, f); p <= 10 {
		t.Errorf("power at floor = %v, expected above the 10 W cap", p)
	}
}

func TestFrequencyForCapMonotoneInCap(t *testing.T) {
	s := nominal()
	ph := phaseFor(kernel.Config{Intensity: 8, Vector: kernel.YMM, Imbalance: 1})
	prev := units.Frequency(0)
	for cap := units.Power(40); cap <= 140; cap += 2 {
		f := s.FrequencyForCap(ph, cap)
		if f < prev {
			t.Fatalf("frequency decreased as cap rose at %v W", cap)
		}
		prev = f
	}
}

func TestFrequencyForCapContinuous(t *testing.T) {
	// RAPL duty-cycles between P-states, so achieved frequencies under
	// nearby caps must differ by less than a full P-state step —
	// otherwise the Figure 6 clusters would collapse onto 100 MHz bins.
	s := nominal()
	ph := phaseFor(kernel.Config{Intensity: 8, Vector: kernel.YMM, Imbalance: 1})
	f1 := s.FrequencyForCap(ph, 83*units.Watt)
	f2 := s.FrequencyForCap(ph, 84*units.Watt)
	if f2 <= f1 {
		t.Errorf("1 W more cap should raise achieved frequency: %v vs %v", f1, f2)
	}
	if diff := f2.Hz() - f1.Hz(); diff >= s.Spec.FreqStep.Hz() {
		t.Errorf("achieved frequency jumped a full P-state (%v Hz) for 1 W", diff)
	}
}

func TestMemoryBoundInsensitiveToCap(t *testing.T) {
	s := nominal()
	memPh := phaseFor(kernel.Config{Intensity: 0.25, Vector: kernel.YMM, Imbalance: 1})
	compPh := phaseFor(kernel.Config{Intensity: 32, Vector: kernel.YMM, Imbalance: 1})

	slowdown := func(ph Phase) float64 {
		fast := s.TimeFor(ph, s.OperateAt(ph, s.Spec.TDP).Frequency)
		capped := s.TimeFor(ph, s.FrequencyForCap(ph, 70*units.Watt))
		return capped.Seconds() / fast.Seconds()
	}
	memSlow, compSlow := slowdown(memPh), slowdown(compPh)
	if memSlow >= compSlow {
		t.Errorf("memory-bound slowdown %v >= compute-bound %v; capping should hurt compute-bound more", memSlow, compSlow)
	}
	if memSlow > 1.12 {
		t.Errorf("memory-bound slowdown %v too large for a 70 W cap", memSlow)
	}
	if compSlow < 1.15 {
		t.Errorf("compute-bound slowdown %v too small for a 70 W cap", compSlow)
	}
}

func TestSeventyWattCapFrequencyBandMatchesFigure6(t *testing.T) {
	// The Figure 6 box plot spans roughly 1.6-2.0 GHz at 70 W caps with
	// the most power-hungry configuration.
	ph := phaseFor(kernel.Config{Intensity: 8, Vector: kernel.YMM, Imbalance: 1})
	for _, eta := range []float64{0.91, 1.0, 1.10} {
		s := NewSocket(quartz(), eta)
		f := s.FrequencyForCap(ph, 70*units.Watt).GHz()
		if f < 1.55 || f > 2.1 {
			t.Errorf("eta %v: achieved frequency %v GHz outside Figure 6 band", eta, f)
		}
	}
	// Efficiency ordering: lower eta clocks higher.
	low, high := NewSocket(quartz(), 1.10), NewSocket(quartz(), 0.91)
	fLow := low.FrequencyForCap(ph, 70*units.Watt)
	fHigh := high.FrequencyForCap(ph, 70*units.Watt)
	if fHigh <= fLow {
		t.Errorf("efficient part %v should out-clock inefficient %v", fHigh, fLow)
	}
}

func TestSpinFrequencyForCap(t *testing.T) {
	s := nominal()
	if f := s.SpinFrequencyForCap(s.Spec.TDP); f != s.Spec.MaxTurbo {
		t.Errorf("uncapped spin frequency = %v, want turbo", f)
	}
	f := s.SpinFrequencyForCap(75 * units.Watt)
	if p := s.SpinPowerAt(f); p > 75 && f > s.Spec.MinFreq {
		t.Errorf("spin power %v exceeds 75 W cap at %v", p, f)
	}
	if f := s.SpinFrequencyForCap(1 * units.Watt); f != s.Spec.MinFreq {
		t.Errorf("deep cap spin frequency = %v, want floor", f)
	}
}

func TestVectorWidthAffectsPowerAndSpeed(t *testing.T) {
	s := nominal()
	f := s.Spec.BaseFreq
	mk := func(v kernel.Vector) Phase {
		return phaseFor(kernel.Config{Intensity: 32, Vector: v, Imbalance: 1})
	}
	pYmm := s.PowerAt(mk(kernel.YMM), f)
	pSca := s.PowerAt(mk(kernel.Scalar), f)
	if pSca >= pYmm {
		t.Errorf("scalar power %v >= ymm power %v at full FP utilization", pSca, pYmm)
	}
	tYmm := s.TimeFor(mk(kernel.YMM), f)
	tSca := s.TimeFor(mk(kernel.Scalar), f)
	if tSca <= tYmm {
		t.Errorf("scalar should be slower: %v <= %v", tSca, tYmm)
	}
}

func TestTimeForZeroWork(t *testing.T) {
	s := nominal()
	if got := s.TimeFor(Phase{Vector: kernel.YMM}, s.Spec.BaseFreq); got != 0 {
		t.Errorf("zero work time = %v", got)
	}
}

func TestTimeForZeroIntensityWork(t *testing.T) {
	s := nominal()
	ph := phaseFor(kernel.Config{Intensity: 0, Vector: kernel.YMM, Imbalance: 1})
	got := s.TimeFor(ph, s.Spec.BaseFreq)
	want := float64(ph.Work.Traffic) / float64(s.MemRoofPerCore(s.Spec.BaseFreq))
	if math.Abs(got.Seconds()-want) > 1e-6 {
		t.Errorf("streaming time = %v, want %v s", got, want)
	}
}

// Property: OperateAt never exceeds the cap when the cap is achievable, and
// the resolved frequency is within the P-state range.
func TestOperateAtProperty(t *testing.T) {
	s := nominal()
	f := func(intRaw uint8, capRaw uint8, vecRaw uint8) bool {
		intensity := float64(intRaw%64) / 2
		cap := units.Power(68 + float64(capRaw%52)) // [68, 120)
		vec := kernel.Vectors()[int(vecRaw)%3]
		ph := phaseFor(kernel.Config{Intensity: intensity, Vector: vec, Imbalance: 1})
		op := s.OperateAt(ph, cap)
		if op.Frequency < s.Spec.MinFreq || op.Frequency > s.Spec.MaxTurbo {
			return false
		}
		if op.Frequency > s.Spec.MinFreq && op.Power > cap+units.Power(1e-9) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// The Choi energy-roofline decomposition must agree exactly with the power
// model: Energy(socket work) == PowerAt * TimeFor, for any intensity,
// vector width, and frequency.
func TestEnergyModelConsistentWithPowerModel(t *testing.T) {
	s := NewSocket(quartz(), 1.03)
	for _, v := range kernel.Vectors() {
		for _, intensity := range []float64{0, 0.25, 1, 8, 32} {
			for _, f := range []units.Frequency{1.4 * units.Gigahertz, 2.1 * units.Gigahertz, 2.6 * units.Gigahertz} {
				cfg := kernel.Config{Intensity: intensity, Vector: v, Imbalance: 1}
				perCore := cfg.CriticalWork()
				m := s.EnergyModel(v, f)

				socketWork := kernel.Work{
					Traffic: perCore.Traffic * units.Bytes(s.Spec.ActiveCores),
					Flops:   perCore.Flops * units.Flops(s.Spec.ActiveCores),
				}
				ph := Phase{Work: perCore, Vector: v}
				want := units.EnergyOver(s.PowerAt(ph, f), s.TimeFor(ph, f)).Joules()
				got := m.Energy(socketWork).Joules()
				if math.Abs(got-want) > 1e-6*math.Max(1, want) {
					t.Errorf("%v i=%g f=%v: energy model %v J vs power model %v J",
						v, intensity, f, got, want)
				}
			}
		}
	}
}

func TestDRAMPowerAt(t *testing.T) {
	s := nominal()
	if got := s.DRAMPowerAt(0); got != s.Spec.DRAMIdlePower {
		t.Errorf("idle DRAM power = %v", got)
	}
	if got := s.DRAMPowerAt(1); got != s.Spec.DRAMMaxPower {
		t.Errorf("max DRAM power = %v", got)
	}
	if got := s.DRAMPowerAt(0.5); math.Abs(got.Watts()-11.5) > 1e-9 {
		t.Errorf("mid DRAM power = %v, want 11.5 W", got)
	}
	// Out-of-range utilizations clamp.
	if got := s.DRAMPowerAt(-3); got != s.Spec.DRAMIdlePower {
		t.Errorf("negative util = %v", got)
	}
	if got := s.DRAMPowerAt(7); got != s.Spec.DRAMMaxPower {
		t.Errorf("overunity util = %v", got)
	}
}

func TestIdleWaitPowerBelowSpin(t *testing.T) {
	s := nominal()
	idle := s.IdleWaitPower()
	spin := s.SpinPowerAt(s.Spec.MaxTurbo)
	if idle >= spin {
		t.Errorf("idle wait %v not below spin %v", idle, spin)
	}
	if idle <= s.Spec.StaticPower {
		t.Errorf("idle wait %v at or below static floor", idle)
	}
	// Eta scales the residual activity.
	ineff := NewSocket(quartz(), 1.2)
	if ineff.IdleWaitPower() <= idle {
		t.Error("inefficient part should idle hotter")
	}
}

func TestEnergyBalanceNearRidge(t *testing.T) {
	// With CFPU == CMem in the calibrated model, the energy balance
	// point coincides with the performance ridge intensity.
	s := nominal()
	f := s.Spec.BaseFreq
	m := s.EnergyModel(kernel.YMM, f)
	ridge := float64(s.ComputeRoofPerCore(kernel.YMM, f)) / float64(s.MemRoofPerCore(f))
	// The energy balance intensity B = EByte/EFlop is where compute energy
	// equals memory energy.
	if got := float64(m.EByte) / float64(m.EFlop); math.Abs(got-ridge)/ridge > 1e-9 {
		t.Errorf("balance point %v != ridge %v", got, ridge)
	}
}

// Property: more imbalance work never takes less time.
func TestTimeMonotoneInWork(t *testing.T) {
	s := nominal()
	f := func(intRaw, scaleRaw uint8) bool {
		intensity := float64(intRaw%64) / 2
		base := phaseFor(kernel.Config{Intensity: intensity, Vector: kernel.YMM, Imbalance: 1})
		scaled := Phase{
			Work: kernel.Work{
				Traffic: base.Work.Traffic * units.Bytes(1+float64(scaleRaw%4)),
				Flops:   base.Work.Flops * units.Flops(1+float64(scaleRaw%4)),
			},
			Vector: kernel.YMM,
		}
		fq := s.Spec.BaseFreq
		return s.TimeFor(scaled, fq) >= s.TimeFor(base, fq)-time.Nanosecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSocketClonePreservesEta(t *testing.T) {
	s := NewSocket(quartz(), 0.93)
	c := s
	if c.Eta != 0.93 {
		t.Errorf("clone Eta = %v, want 0.93", c.Eta)
	}
	// Sockets are pure values: a copied socket must model power and
	// timing identically to its original.
	ph := phaseFor(kernel.Config{Intensity: 8, Vector: kernel.YMM, Imbalance: 1})
	if got, want := c.PowerAt(ph, s.Spec.BaseFreq), s.PowerAt(ph, s.Spec.BaseFreq); got != want {
		t.Errorf("clone PowerAt = %v, original %v", got, want)
	}
}
