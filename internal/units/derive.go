package units

import "time"

// EnergyOver returns the energy consumed by drawing power p for duration d.
func EnergyOver(p Power, d time.Duration) Energy {
	return Energy(float64(p) * d.Seconds())
}

// MeanPower returns the average power implied by consuming energy e over
// duration d. It returns 0 for non-positive durations.
func MeanPower(e Energy, d time.Duration) Power {
	s := d.Seconds()
	if s <= 0 {
		return 0
	}
	return Power(float64(e) / s)
}

// EDP returns the energy-delay product in joule-seconds, the efficiency
// metric reported in Figure 8 of the paper.
func EDP(e Energy, d time.Duration) float64 {
	return float64(e) * d.Seconds()
}

// FlopsPerWatt returns floating-point operations per joule — numerically
// equal to sustained FLOP/s per watt, the "science per watt" metric of
// Figure 8. It returns 0 for non-positive energy.
func FlopsPerWatt(work Flops, e Energy) float64 {
	if e <= 0 {
		return 0
	}
	return float64(work) / float64(e)
}

// Clamp returns v limited to the inclusive range [lo, hi]. It is used
// pervasively when programming power limits, which must respect both the
// minimum settable RAPL limit and the TDP ceiling.
func Clamp(v, lo, hi Power) Power {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
