package roofline

import (
	"time"

	"powerstack/internal/kernel"
	"powerstack/internal/units"
)

// The synthetic kernel of Section IV derives from Choi et al.'s "A Roofline
// Model of Energy" [10]. This file implements that model: total energy is
// decomposed into per-FLOP energy, per-byte energy, and a constant-power
// term integrated over the roofline execution time,
//
//	E(W, Q) = W*EFlop + Q*EByte + P0*T(W, Q)
//
// The energy balance point B = EByte/EFlop (in FLOPs/byte) is the energy
// analogue of the performance ridge: kernels below it spend most of their
// energy moving bytes, kernels above it spend it computing.
//
// No simulation path evaluates the model: the socket power law computes
// power directly, and the cpumodel tests check that it decomposes exactly
// into this model.

// EnergyModel holds the decomposed energy coefficients of one socket at a
// fixed operating frequency.
type EnergyModel struct {
	// EFlop is the incremental energy of one floating-point operation.
	EFlop units.Energy
	// EByte is the incremental energy of one byte of memory traffic.
	EByte units.Energy
	// ConstPower is the frequency- and activity-floor power integrated
	// over runtime (static + base switching).
	ConstPower units.Power
	// PeakFlops and PeakBandwidth are the roofline ceilings used for the
	// execution-time term.
	PeakFlops     units.FlopsPerSecond
	PeakBandwidth units.BytesPerSecond
}

// Time returns the roofline execution time of the work under this model.
func (m EnergyModel) Time(w kernel.Work) time.Duration {
	var tComp, tMem float64
	if w.Flops > 0 && m.PeakFlops > 0 {
		tComp = float64(w.Flops) / float64(m.PeakFlops)
	}
	if w.Traffic > 0 && m.PeakBandwidth > 0 {
		tMem = float64(w.Traffic) / float64(m.PeakBandwidth)
	}
	t := tComp
	if tMem > t {
		t = tMem
	}
	return time.Duration(t * float64(time.Second))
}

// Energy returns the modeled energy of the work: the Choi decomposition.
func (m EnergyModel) Energy(w kernel.Work) units.Energy {
	e := units.Energy(float64(w.Flops)*float64(m.EFlop)) +
		units.Energy(float64(w.Traffic)*float64(m.EByte))
	return e + units.EnergyOver(m.ConstPower, m.Time(w))
}
