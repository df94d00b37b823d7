package cpumodel

import (
	"math"

	"powerstack/internal/kernel"
	"powerstack/internal/roofline"
	"powerstack/internal/units"
)

// quartz returns a fresh Quartz spec for a test's sockets to share.
func quartz() *Spec {
	s := Quartz()
	return &s
}

// Reference oracles: the plain full-range bisections and the resolved
// operating point that the shared cap tables and node.resolve reproduce bit
// for bit, and the Choi energy roofline the power model decomposes into.
// Only the tests call them.

// SpinFrequencyForCap is FrequencyForCap for the spin-wait phase.
func (s *Socket) SpinFrequencyForCap(cap units.Power) units.Frequency {
	lo, hi := s.Spec.MinFreq, s.Spec.MaxTurbo
	if s.SpinPowerAt(hi) <= cap {
		return hi
	}
	if s.SpinPowerAt(lo) > cap {
		return lo
	}
	for i := 0; i < 48; i++ {
		mid := (lo + hi) / 2
		if s.SpinPowerAt(mid) <= cap {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// OperatingPoint is the resolved steady state of a socket under a cap.
type OperatingPoint struct {
	Frequency units.Frequency
	Power     units.Power
	Util      roofline.Utilization
}

// OperateAt resolves the steady state of the socket executing the phase
// under the given RAPL cap.
func (s *Socket) OperateAt(ph Phase, cap units.Power) OperatingPoint {
	f := s.FrequencyForCap(ph, cap)
	return OperatingPoint{
		Frequency: f,
		Power:     s.PowerAt(ph, f),
		Util:      s.Utilization(ph, f),
	}
}

// EnergyModel derives the Choi-style energy roofline of this socket at a
// fixed frequency (see internal/roofline/energy.go). The decomposition is
// exact with respect to this power model: for any work,
// EnergyModel.Energy(w) equals PowerAt(w, f) * TimeFor(w, f), because the
// per-FLOP and per-byte energies are the utilization-linear dynamic terms
// divided by the matching roofline ceilings.
func (s *Socket) EnergyModel(v kernel.Vector, f units.Frequency) roofline.EnergyModel {
	fhat := math.Pow(s.fhat(f), s.Spec.FreqExponent)
	peakF := units.FlopsPerSecond(float64(s.ComputeRoofPerCore(v, f)) * float64(s.Spec.ActiveCores))
	peakB := units.BytesPerSecond(float64(s.MemRoofPerCore(f)) * float64(s.Spec.ActiveCores))
	m := roofline.EnergyModel{
		ConstPower:    s.Spec.StaticPower + units.Power(s.Eta*fhat*s.Spec.CBase*(0.75+0.25*v.PowerScale())),
		PeakFlops:     peakF,
		PeakBandwidth: peakB,
	}
	if peakF > 0 {
		m.EFlop = units.Energy(s.Eta * fhat * s.Spec.CFPU * v.PowerScale() / float64(peakF))
	}
	if peakB > 0 {
		m.EByte = units.Energy(s.Eta * fhat * s.Spec.CMem / float64(peakB))
	}
	return m
}
