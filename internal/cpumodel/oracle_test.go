package cpumodel

import (
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
// for bit. Only the tests call them.

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
